// Package unusedignore defines the suite's audit analyzer: an
// //eoslint:ignore directive that suppresses no diagnostic is itself
// reported, as is a directive naming an analyzer that does not exist.
//
// The exception inventory only stays honest if it shrinks when the
// engine improves: once a justified violation is fixed, its directive
// would otherwise silently keep suppressing whatever appears on that
// line next.  This is the nolintlint idea applied to eoslint.
//
// The analyzer Requires every checker in the suite, so it runs after
// them; each checker records, on the shared directive table parsed by
// the ignore prerequisite, which directives actually suppressed
// something.  Reporting goes through the plain pass (not the ignore
// filter): an unused-ignore finding must not be ignorable by the very
// directive it is about.
package unusedignore

import (
	"strings"

	"golang.org/x/tools/go/analysis"

	"github.com/eosdb/eos/internal/analysis/atomicfield"
	"github.com/eosdb/eos/internal/analysis/errwrap"
	"github.com/eosdb/eos/internal/analysis/forcedom"
	"github.com/eosdb/eos/internal/analysis/guardedby"
	"github.com/eosdb/eos/internal/analysis/ignore"
	"github.com/eosdb/eos/internal/analysis/lockorder"
	"github.com/eosdb/eos/internal/analysis/pairs"
	"github.com/eosdb/eos/internal/analysis/racecheck"
	"github.com/eosdb/eos/internal/analysis/useafterunpin"
	"github.com/eosdb/eos/internal/analysis/walfirst"
)

const doc = `report //eoslint:ignore directives that suppress nothing

A stale suppression hides the next diagnostic that lands on its line,
and a directive naming a misspelled analyzer never worked at all.
Runs after the rest of the suite and audits the shared directive
table.`

// Analyzer is the unusedignore analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "unusedignore",
	Doc:  doc,
	Requires: []*analysis.Analyzer{
		ignore.Analyzer,
		pairs.Analyzer,
		lockorder.Analyzer,
		atomicfield.Analyzer,
		walfirst.Analyzer,
		errwrap.Analyzer,
		useafterunpin.Analyzer,
		guardedby.Analyzer,
		forcedom.Analyzer,
		racecheck.Analyzer,
	},
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	list := pass.ResultOf[ignore.Analyzer].(*ignore.List)
	// The set of names a directive may suppress, derived from Requires
	// so it cannot drift from the suite.
	known := map[string]bool{"all": true}
	for req := range pass.ResultOf {
		if req != ignore.Analyzer {
			known[req.Name] = true
		}
	}

	for _, d := range list.All() {
		var unknown []string
		for _, n := range d.Names {
			if !known[n] {
				unknown = append(unknown, n)
			}
		}
		if len(unknown) > 0 {
			pass.Reportf(d.Pos, "eoslint:ignore names unknown analyzer(s) %s",
				strings.Join(unknown, ", "))
		}
	}
	for _, d := range list.Unused() {
		pass.Reportf(d.Pos, "eoslint:ignore %s suppresses nothing; remove the stale directive",
			strings.Join(d.Names, ","))
	}
	return nil, nil
}
