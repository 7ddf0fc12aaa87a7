package crashtest

import (
	"testing"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

// TestWorkloadModelMatchesStore validates the oracle bookkeeping: after
// the traced workload, the live store's committed content must equal
// the final oracle state exactly.  (The in-flight loser mutates the
// live store after the last mark, so only the pre-loser content is
// comparable; we reproduce the workload with zero loser ops by reading
// before it starts — here simply by comparing against the last commit
// mark after a clean recovery of the full clean-prefix state.)
func TestWorkloadModelMatchesStore(t *testing.T) {
	clock := &Clock{}
	dataDev := NewDevice(disk.MustNewVolume(512, 4096, disk.DefaultCostModel()), clock, 0)
	logDev := NewDevice(disk.MustNewVolume(512, 1024, disk.DefaultCostModel()), clock, 1)
	st, err := eos.Format(dataDev, logDev, eos.Options{Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := RunWorkload(st, clock, WorkloadConfig{Seed: 42, Txns: 30, NoLoser: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle.Commits) == 0 {
		t.Fatal("no commits recorded")
	}
	got, err := readAll(st)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Commits[len(oracle.Commits)-1].State
	if mapsEqual(got, want) {
		return
	}
	t.Logf("live store:         %v", got)
	t.Logf("final oracle state: %v", want)
	t.Errorf("model diverges from store")
}

// TestWorkloadCoversReplaceShapes checks that the sweep's workload drives
// every fate a transactional replace can meet: pended by the commit force,
// read back or copied by a structural operation on the same object from
// the transaction's held pages, dropped by an abort — each also for a
// replace planned on the page images of the read just before it
// (read-replace) — and that the loser destroys an object.
func TestWorkloadCoversReplaceShapes(t *testing.T) {
	cfg := sweepConfig(t)
	clock := &Clock{}
	dataDev := NewDevice(disk.MustNewVolume(512, 4096, disk.DefaultCostModel()), clock, 0)
	logDev := NewDevice(disk.MustNewVolume(512, 1024, disk.DefaultCostModel()), clock, 1)
	st, err := eos.Format(dataDev, logDev, cfg.Opts)
	if err != nil {
		t.Fatal(err)
	}
	type op struct{ kind, obj string }
	ops := map[int][]op{}
	shapes := map[string]int{}
	// end classifies each replace of a finished transaction by the next
	// operation on its object that is not a plain append, or by how the
	// transaction ended.
	end := func(txn int, how string) {
		for i, o := range ops[txn] {
			if o.kind != "replace" && o.kind != "read-replace" {
				continue
			}
			fate := how
			for _, later := range ops[txn][i+1:] {
				if later.obj == o.obj && later.kind != "append" {
					fate = later.kind
					break
				}
			}
			shapes[o.kind+", "+fate]++
		}
	}
	wl := cfg.Workload
	wl.Trace = func(format string, args ...any) {
		switch format {
		case traceOp:
			txn := args[0].(int)
			ops[txn] = append(ops[txn], op{args[1].(string), args[2].(string)})
		case traceCommit:
			end(args[2].(int), "commit")
		case traceAbort:
			end(args[1].(int), "abort")
		}
	}
	if _, err := RunWorkload(st, clock, wl); err != nil {
		t.Fatal(err)
	}
	t.Logf("replace shapes: %v", shapes)
	for _, want := range []string{
		"replace, commit", "replace, abort", "replace, read",
		"replace, insert", "replace, delete", "replace, truncate", "replace, replace",
		"read-replace, commit", "read-replace, abort",
	} {
		if shapes[want] == 0 {
			t.Errorf("workload never produces %q", want)
		}
	}
	loser := ops[loserTxn]
	if len(loser) == 0 || loser[len(loser)-1].kind != "destroy" {
		t.Errorf("the loser's operations %v do not end in a destroy", loser)
	}
}

// TestWorkloadCoversAppendShapes checks that the sweep's workload drives
// what a plain append can meet now that it continues the tail the one before
// left open: an append after an append on one object that goes on in place,
// in a transaction that commits and in one that aborts; a cut of the tail and
// an append behind it inside one transaction (filling a partial last page
// whatever its history overwrites bytes the durable root still names: the
// rule a prototype tried and this sweep refuted); and a loser that does
// both, the continuation written before the data volume is forced for the
// last time, so that crash states hold its bytes in the slack of a page the
// committed root names.  And appends that write nothing — their pages stay
// pending — committed, aborted and in the loser; the directed prefix commits
// such appends, and replaces whose pages its commits leave pending, with no
// checkpoint behind them, so that every sweep has crash states whose
// committed appends and replaces live only in the log.  Among them, appends
// that fill their tail's room and leave the closed tail pending beside the
// new one, committed by the prefix and the churn, and aborted.
func TestWorkloadCoversAppendShapes(t *testing.T) {
	cfg := sweepConfig(t)
	clock := &Clock{}
	dataDev := NewDevice(disk.MustNewVolume(512, 4096, disk.DefaultCostModel()), clock, 0)
	logDev := NewDevice(disk.MustNewVolume(512, 1024, disk.DefaultCostModel()), clock, 1)
	st, err := eos.Format(dataDev, logDev, cfg.Opts)
	if err != nil {
		t.Fatal(err)
	}
	type op struct{ kind, obj string }
	ops := map[int][]op{}
	fills := map[int]int{}    // continuations in place, by transaction
	behind := map[int]int{}   // appends that left their pages pending, by transaction
	replaced := map[int]int{} // commits that left replaced pages pending, by transaction
	filled := map[int]int{}   // appends that filled a tail and left it pending, by transaction
	shapes := map[string]int{}
	loserFillSeq := -1
	end := func(txn int, how string) {
		if fills[txn] > 0 {
			shapes["append continued in place, "+how] += fills[txn]
		}
		if txn < loserTxn {
			how = "prefix " + how // the directed prefix numbers its transactions below the loser
		}
		if behind[txn] > 0 {
			shapes["append left pending, "+how] += behind[txn]
		}
		if replaced[txn] > 0 {
			shapes["replace left pending, "+how] += replaced[txn]
		}
		if filled[txn] > 0 {
			shapes["filled tail left pending, "+how] += filled[txn]
		}
		for i, o := range ops[txn][1:] {
			if before := ops[txn][i]; o.kind == "append" && before.kind == "truncate" && before.obj == o.obj {
				shapes["truncate then append, "+how]++
			}
		}
	}
	wl := cfg.Workload
	wl.Trace = func(format string, args ...any) {
		switch format {
		case traceOp:
			txn := args[0].(int)
			ops[txn] = append(ops[txn], op{args[1].(string), args[2].(string)})
		case traceFill:
			fills[args[0].(int)]++
			if args[0].(int) == loserTxn {
				loserFillSeq = clock.Seq()
			}
		case traceBehind:
			behind[args[0].(int)]++
		case traceFilled:
			filled[args[0].(int)]++
		case traceReplaced:
			replaced[args[0].(int)]++
		case traceCommit:
			end(args[2].(int), "commit")
		case traceAbort:
			end(args[1].(int), "abort")
		}
	}
	if _, err := RunWorkload(st, clock, wl); err != nil {
		t.Fatal(err)
	}
	end(loserTxn, "loser")
	t.Logf("append shapes: %v", shapes)
	for _, want := range []string{
		"append continued in place, commit", "append continued in place, abort", "append continued in place, loser",
		"truncate then append, commit", "truncate then append, loser",
		"append left pending, commit", "append left pending, abort", "append left pending, loser",
		"append left pending, prefix commit", "replace left pending, prefix commit",
		"filled tail left pending, prefix commit", "filled tail left pending, commit", "filled tail left pending, abort",
	} {
		if shapes[want] == 0 {
			t.Errorf("workload never produces %q", want)
		}
	}
	// The loser's continuation is on the device when the power goes: the
	// soft checkpoint behind it forces the whole data volume.
	forced := false
	for _, ev := range clock.Events() {
		forced = forced || (loserFillSeq >= 0 && ev.Seq >= loserFillSeq && ev.Dev == 0 && ev.Kind == KindForceAll)
	}
	if !forced {
		t.Errorf("no force of the data volume follows the loser's in-place append (at seq %d)", loserFillSeq)
	}
}

// TestDirectedPrefixSplitsAnIndexNode checks that the directed prefix drives
// its split object through a root push-down (no node page to two) and then
// a leaf split (one node page more), each in a commit of its own.
func TestDirectedPrefixSplitsAnIndexNode(t *testing.T) {
	cfg := sweepConfig(t)
	clock := &Clock{}
	dataDev := NewDevice(disk.MustNewVolume(512, 4096, disk.DefaultCostModel()), clock, 0)
	logDev := NewDevice(disk.MustNewVolume(512, 96, disk.DefaultCostModel()), clock, 1)
	st, err := eos.Format(dataDev, logDev, cfg.Opts)
	if err != nil {
		t.Fatal(err)
	}
	var grew [][2]int
	wl := WorkloadConfig{Seed: 42, Txns: 1, NoLoser: true, Trace: func(format string, args ...any) {
		if format == traceSplit {
			grew = append(grew, [2]int{args[2].(int), args[3].(int)})
		}
	}}
	if _, err := RunWorkload(st, clock, wl); err != nil {
		t.Fatal(err)
	}
	if len(grew) != 2 || grew[0] != [2]int{0, 2} || grew[1] != [2]int{2, 3} {
		t.Errorf("the split txns grew the index %v, want [[0 2] [2 3]]: a push-down, then a leaf split", grew)
	}
}
