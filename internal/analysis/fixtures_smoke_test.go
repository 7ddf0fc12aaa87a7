package analysis_test

import (
	"testing"

	"github.com/eosdb/eos/internal/analysis"
	"github.com/eosdb/eos/internal/analysis/analyzertest"
)

// badFixtures maps every analyzer to the bad-fixture packages that must
// keep tripping it.  scripts/lint.sh --fixtures runs this test as its
// smoke step: the per-analyzer tests already pin exact positions and
// messages via want comments, but those comments travel with the
// fixtures — a pass neutered together with its fixtures would still be
// green there.  Requiring a nonzero count per bad fixture from the
// registry's own analyzer instances catches that failure mode, and
// catches a bad fixture dropped from this table by construction (every
// registry analyzer must appear).
var badFixtures = map[string][]string{
	"pairs": {
		"pairs_pin_bad", "pairs_mutex_bad", "pairs_txn_bad",
		"pairs_alloc_bad", "pairs_epoch_bad",
		"pairs_filevol_bad", "leaksip_bad",
	},
	"lockorder":     {"lockorder_bad", "deadlock_bad"},
	"atomicfield":   {"atomicfield_bad"},
	"errwrap":       {"errwrap_bad"},
	"useafterunpin": {"useafterunpin_bad"},
	"guardedby":     {"guardedby_bad"},
	"forcedom":      {"forcedom_bad", "walfirst_bad", "walfirstip_bad"},
	"racecheck":     {"racecheck_bad"},
	"unusedignore":  {"unusedignore_bad"},
}

// TestBadFixturesProduceDiagnostics asserts every registered analyzer
// still finds at least one violation in each of its bad fixtures.
func TestBadFixturesProduceDiagnostics(t *testing.T) {
	for _, a := range analysis.Analyzers() {
		pkgs, ok := badFixtures[a.Name]
		if !ok {
			t.Errorf("analyzer %s has no bad-fixture entry; add it to badFixtures", a.Name)
			continue
		}
		for _, pkg := range pkgs {
			pkg := pkg
			t.Run(a.Name+"/"+pkg, func(t *testing.T) {
				if n := analyzertest.Count(t, "testdata", a, pkg); n == 0 {
					t.Errorf("%s produced 0 diagnostics on %s; the pass may be neutered", a.Name, pkg)
				}
			})
		}
	}
	for name := range badFixtures {
		found := false
		for _, a := range analysis.Analyzers() {
			if a.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("badFixtures names %q, which is not a registered analyzer", name)
		}
	}
}
