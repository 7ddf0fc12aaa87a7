// Package analysis collects the eoslint analyzer suite: the custom
// go/analysis checkers that machine-enforce the storage engine's
// concurrency and recovery invariants (guarded-field locking, pin
// lifetimes, atomics discipline, and error wrapping), the
// whole-program passes built on the internal ssa facility (pairs,
// lockorder, walfirst, forcedom, racecheck — acquire/release pairing
// through helpers and wrappers, the latch lattice across call chains,
// §4.5 write-ahead dominance across helpers, §8.1 force-ordering
// dominance, and the Eraser lockset rule), plus the audit that keeps
// the //eoslint:ignore exception inventory honest.
//
// The suite runs under `go vet` via cmd/eoslint and in CI via
// scripts/lint.sh; see the "Static analysis" section of README.md and
// DESIGN.md §7 for the analyzer-to-invariant mapping.
package analysis

import (
	goanalysis "golang.org/x/tools/go/analysis"

	"github.com/eosdb/eos/internal/analysis/atomicfield"
	"github.com/eosdb/eos/internal/analysis/errwrap"
	"github.com/eosdb/eos/internal/analysis/forcedom"
	"github.com/eosdb/eos/internal/analysis/guardedby"
	"github.com/eosdb/eos/internal/analysis/lockorder"
	"github.com/eosdb/eos/internal/analysis/pairs"
	"github.com/eosdb/eos/internal/analysis/racecheck"
	"github.com/eosdb/eos/internal/analysis/unusedignore"
	"github.com/eosdb/eos/internal/analysis/useafterunpin"
	"github.com/eosdb/eos/internal/analysis/walfirst"
)

// Analyzers returns the eoslint suite.  unusedignore must come after
// the checkers it audits only in the sense of the Requires graph; the
// driver orders execution by that graph, not by this slice.
func Analyzers() []*goanalysis.Analyzer {
	return []*goanalysis.Analyzer{
		pairs.Analyzer,
		lockorder.Analyzer,
		atomicfield.Analyzer,
		walfirst.Analyzer,
		errwrap.Analyzer,
		useafterunpin.Analyzer,
		guardedby.Analyzer,
		forcedom.Analyzer,
		racecheck.Analyzer,
		unusedignore.Analyzer,
	}
}
