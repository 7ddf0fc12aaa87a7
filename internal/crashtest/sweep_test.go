package crashtest

import (
	"os"
	"testing"

	"github.com/eosdb/eos"
)

func sweepConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Seed:           42,
		Workload:       WorkloadConfig{Seed: 42, Txns: 170},
		Opts:           eos.Options{Threshold: 4},
		SubsetEvery:    6,
		SubsetSamples:  2,
		TornCap:        6,
		FileCheckEvery: 64,
		FileDir:        t.TempDir(),
		ReopenEvery:    16,
		RecrashEvery:   24,
		Logf:           t.Logf,
	}
}

// TestCrashSweep is the tier-1 crash-consistency gate: enumerate crash
// states of a mixed workload and require every recovery invariant to
// hold on each.  It runs twice: with the default four-page catalog
// slots, where a compaction into the other slot comes every few
// barriers, and with slots large enough that the journal grows long
// delta chains between compactions.  Short mode runs a reduced but still
// multi-hundred-state sweep.
func TestCrashSweep(t *testing.T) {
	for _, tc := range []struct {
		name         string
		catalogPages int
	}{
		{"compacting", 0},
		{"long-chains", 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sweepConfig(t)
			cfg.Opts.CatalogPages = tc.catalogPages
			if testing.Short() {
				cfg.Workload.Txns = 30
				cfg.SubsetEvery = 12
				cfg.SubsetSamples = 1
				cfg.TornCap = 3
				cfg.FileCheckEvery = 96
				cfg.ReopenEvery = 32
				cfg.RecrashEvery = 48
			}
			res, err := Sweep(cfg)
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			report(t, res)
			// The floor guards against a sweep that silently enumerates less.
			// It was 1550 while every log truncation zeroed the pages its
			// epoch had written (1663 / 1606 states), then 1450 once truncation
			// issued no request (1534 / 1495).  The workload then gained the
			// append shapes TestWorkloadCoversAppendShapes pins — a truncate
			// with an append behind it, a loser that continues a tail in place
			// and cuts another — and its 170 transactions gave 1604 / 1576.
			// Since every log force starts on a fresh page they give
			// 1520 / 1491: fewer, because no log page has two versions any
			// more — the partial last page a force left used to be written
			// again, longer, by the next one, and "old version kept, new one
			// lost" was a state of its own.  (With zero padding it would be
			// 1519 / 1490: one force's last page holds nothing but the zero
			// tail of a commit record, and only the 0xFF padding behind it
			// tells that page from one never written.)
			if !testing.Short() && res.States < 1450 {
				t.Fatalf("sweep enumerated only %d distinct states, want >= 1450", res.States)
			}
		})
	}
}

// TestCrashSweepFull is the exhaustive nightly sweep; set
// EOS_CRASH_SWEEP_FULL=1 to run it.
func TestCrashSweepFull(t *testing.T) {
	if os.Getenv("EOS_CRASH_SWEEP_FULL") == "" {
		t.Skip("set EOS_CRASH_SWEEP_FULL=1 to run the full sweep")
	}
	for _, seed := range []int64{42, 1337, 9001} {
		cfg := sweepConfig(t)
		cfg.Seed = seed
		cfg.Workload = WorkloadConfig{Seed: seed, Txns: 300}
		cfg.SubsetEvery = 3
		cfg.SubsetSamples = 4
		cfg.TornCap = 0 // every split
		cfg.FileCheckEvery = 32
		cfg.ReopenEvery = 8
		cfg.RecrashEvery = 12
		res, err := Sweep(cfg)
		if err != nil {
			t.Fatalf("seed %d: sweep: %v", seed, err)
		}
		t.Logf("seed %d:", seed)
		report(t, res)
	}
}

func report(t *testing.T, res *Result) {
	t.Helper()
	t.Logf("crash sweep: %d events, %d positions, %d candidates, %d distinct states recovered (%d on file backend, %d re-crash probes), %d violations",
		res.Events, res.Positions, res.Candidates, res.States, res.FileStates, res.Recrashes, len(res.Violations))
	for i, v := range res.Violations {
		if i >= 10 {
			t.Logf("... and %d more violations", len(res.Violations)-10)
			break
		}
		t.Errorf("violation: %s", v)
	}
}
