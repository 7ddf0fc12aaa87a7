package pairs_test

import (
	"testing"

	"github.com/eosdb/eos/internal/analysis/analyzertest"
	"github.com/eosdb/eos/internal/analysis/pairs"
)

func TestPin(t *testing.T) {
	analyzertest.Run(t, "../testdata", pairs.Analyzer, "pairs_pin_bad", "pairs_pin_clean")
}

func TestMutex(t *testing.T) {
	analyzertest.Run(t, "../testdata", pairs.Analyzer, "pairs_mutex_bad", "pairs_mutex_clean")
}

func TestTxn(t *testing.T) {
	analyzertest.Run(t, "../testdata", pairs.Analyzer, "pairs_txn_bad", "pairs_txn_clean")
}

func TestEpoch(t *testing.T) {
	analyzertest.Run(t, "../testdata", pairs.Analyzer, "pairs_epoch_bad", "pairs_epoch_clean")
}

func TestAlloc(t *testing.T) {
	analyzertest.Run(t, "../testdata", pairs.Analyzer, "pairs_alloc_bad", "pairs_alloc_clean")
}

func TestFileVol(t *testing.T) {
	analyzertest.Run(t, "../testdata", pairs.Analyzer, "pairs_filevol_bad", "pairs_filevol_clean")
}

// TestLeaksIP runs the wrapper fixtures: resources acquired by one
// function and left for its caller to release.
func TestLeaksIP(t *testing.T) {
	analyzertest.Run(t, "../testdata", pairs.Analyzer, "leaksip_bad", "leaksip_clean")
}
