package lockorder_test

import (
	"testing"

	"github.com/eosdb/eos/internal/analysis/analyzertest"
	"github.com/eosdb/eos/internal/analysis/lockorder"
)

func TestLockorder(t *testing.T) {
	analyzertest.Run(t, "../testdata", lockorder.Analyzer,
		"lockorder_bad", "lockorder_clean")
}

// TestDeadlock covers the cross-call half of the analyzer: inversions,
// same-rank cycles and re-acquisitions reached through helper calls.
func TestDeadlock(t *testing.T) {
	analyzertest.Run(t, "../testdata", lockorder.Analyzer,
		"deadlock_bad", "deadlock_clean")
}
