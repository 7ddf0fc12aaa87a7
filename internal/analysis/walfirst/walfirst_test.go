package walfirst_test

import (
	"testing"

	"github.com/eosdb/eos/internal/analysis/analyzertest"
	"github.com/eosdb/eos/internal/analysis/walfirst"
)

func TestWalfirst(t *testing.T) {
	analyzertest.Run(t, "../testdata", walfirst.Analyzer,
		"walfirst_bad", "walfirst_clean")
}

// TestWalfirstIP covers the cross-call half of the analyzer: mutations and
// appends reached through helpers, judged by their call-graph summaries.
func TestWalfirstIP(t *testing.T) {
	analyzertest.Run(t, "../testdata", walfirst.Analyzer,
		"walfirstip_bad", "walfirstip_clean")
}
