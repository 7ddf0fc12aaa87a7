package forcedom_test

import (
	"testing"

	"github.com/eosdb/eos/internal/analysis/analyzertest"
	"github.com/eosdb/eos/internal/analysis/forcedom"
)

func TestForcedom(t *testing.T) {
	analyzertest.Run(t, "../testdata", forcedom.Analyzer, "forcedom_bad", "forcedom_clean")
}

// TestWriteAhead covers the §4.5 write-ahead rule within one method.
func TestWriteAhead(t *testing.T) {
	analyzertest.Run(t, "../testdata", forcedom.Analyzer, "walfirst_bad", "walfirst_clean")
}

// TestWriteAheadIP covers the write-ahead rule across calls: mutations and
// appends reached through helpers, judged by their call-graph summaries.
func TestWriteAheadIP(t *testing.T) {
	analyzertest.Run(t, "../testdata", forcedom.Analyzer, "walfirstip_bad", "walfirstip_clean")
}
