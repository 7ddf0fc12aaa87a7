package crashtest

import (
	"os"
	"testing"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

func sweepConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Seed:           42,
		Workload:       WorkloadConfig{Seed: 42, Txns: 224},
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
// hold on each.  It runs twice: on the default log volume, and on one so
// small that the log goes round it several times, so that crashes land on
// records, images and master copies written over earlier laps.  Short mode
// runs a reduced but still multi-hundred-state sweep.
func TestCrashSweep(t *testing.T) {
	for _, tc := range []struct {
		name     string
		logPages disk.PageNum
	}{
		{"default", 0},
		{"wrapping", 96},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sweepConfig(t)
			cfg.LogPages = tc.logPages
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
			// tells that page from one never written.)  Since a commit's
			// catalog delta rides the log, a commit issues one data-volume
			// write and one force fewer, and 170 transactions gave only
			// 1437 / 1437; 186 gave 1554 / 1554.  Since a commit forces
			// only the log, every commit goes down one path and the
			// workload no longer draws which: the draw's absence reshuffles
			// the seeded operations, and under 214 transactions some run
			// lacks a shape TestWorkloadCoversReplaceShapes requires (a
			// replace settled by an insert).  The workload runs 216
			// (1989 / 1987).  Since an abort forces only its record, the
			// writes an abort barrier used to force stay outstanding longer
			// and the same workload gives 2016 / 2014.  Since a committed
			// replace's pages wait in the write-behind set, a commit writes
			// nothing on the data volume, and crash positions between a
			// commit's force and its home write are gone: with the directed
			// prefix's read-replace-append transactions the 216 gave
			// 1998 / 1955, and the workload runs 224 (2082 / 2024).  Since
			// a replace waits in memory for its commit whatever its
			// transaction does next, and a checkpoint forces the log only
			// behind its image, the same workload gives 1952 / 1992 (a
			// commit the full log refuses now aborts and goes on).  Since
			// index entries are 10 bytes a 512-byte node holds 50 of them,
			// the workload splits fewer nodes, and the wrapping log gave
			// 1444; the directed prefix's split transactions, behind a
			// checkpoint, give 1785 / 1783.  The snapshot coda, behind the
			// loser, adds its own states and changes none before it:
			// 1809 / 1805.
			if !testing.Short() && res.States < 1450 {
				t.Fatalf("sweep enumerated only %d distinct states, want >= 1450", res.States)
			}
			// A commit forces only the log: the sweep must reach a commit
			// no checkpoint followed, which redo re-executes.  And it must
			// crash where a transaction's operation read the bytes its own
			// replace holds uncommitted, while the transaction runs or
			// right after it ended.
			if res.ReplaceFollowedStates == 0 || res.Redone == 0 {
				t.Fatalf("%d states fell in or right behind a transaction that followed its replace with another operation on the object, and %d redid committed operations, want both > 0", res.ReplaceFollowedStates, res.Redone)
			}
			// A record that names segments by reference: crashes must land
			// while they are written and not forced, and behind the force
			// that made them durable for a commit only the log holds.
			if res.ByRefUnforced == 0 || res.ByRefForced == 0 {
				t.Fatalf("%d states fell while a by-reference record's segments were unforced and %d once they were forced, want both > 0", res.ByRefUnforced, res.ByRefForced)
			}
			// An append that fills its tail writes nothing and logs its bytes
			// by value across the closed tail and the new one: crashes must
			// land while the closed tail waits for the checkpoint.
			if res.FilledStates == 0 {
				t.Fatalf("no state fell while a committed append's filled tail was pending, want > 0")
			}
			// A commit that split an index node, or pushed its root down:
			// crashes must land while only the log holds the split.
			if res.SplitStates == 0 {
				t.Fatalf("no state fell behind a commit that split an index node, want > 0")
			}
			// A checkpoint a transaction was live across, which could not
			// move the log's start: crashes must land behind it.
			if res.LiveAcrossStates == 0 {
				t.Fatalf("no state fell behind a checkpoint a transaction was live across, want > 0")
			}
			// A checkpoint's two durable writes: the image in the log, then
			// the master copy naming it.  Crashes must land inside both.
			if !testing.Short() && (res.ImageStates == 0 || res.MasterStates == 0) {
				t.Fatalf("%d states inside an image write and %d inside a master-copy write, want both > 0", res.ImageStates, res.MasterStates)
			}
			if !testing.Short() && tc.logPages != 0 && res.Wraps < 3 {
				t.Fatalf("the log went round its volume %d times, want >= 3", res.Wraps)
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
	t.Logf("crash sweep: %d events, %d positions, %d candidates, %d distinct states recovered (%d on file backend, %d re-crash probes; %d in or right behind a transaction that followed its replace, %d redid commits; %d with by-reference segments unforced, %d with them forced; %d with a filled tail pending, %d behind a commit that split an index node; %d behind a checkpoint a transaction was live across; %d inside an image write, %d inside a master-copy write; the log went round %d times), %d violations",
		res.Events, res.Positions, res.Candidates, res.States, res.FileStates, res.Recrashes, res.ReplaceFollowedStates, res.Redone, res.ByRefUnforced, res.ByRefForced, res.FilledStates, res.SplitStates, res.LiveAcrossStates, res.ImageStates, res.MasterStates, res.Wraps, len(res.Violations))
	for i, v := range res.Violations {
		if i >= 10 {
			t.Logf("... and %d more violations", len(res.Violations)-10)
			break
		}
		t.Errorf("violation: %s", v)
	}
}
