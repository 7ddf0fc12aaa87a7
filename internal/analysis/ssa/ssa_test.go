package ssa_test

import (
	"testing"

	"golang.org/x/tools/go/analysis"

	"github.com/eosdb/eos/internal/analysis/analyzertest"
	"github.com/eosdb/eos/internal/analysis/ssa"
)

// TestProgramIR builds the IR for the eosssa fixture and asserts the
// structural properties the whole-program passes rely on: dominator
// relations across a diamond, instruction classification, call
// resolution (static and CHA), and bottom-up SCC order.
func TestProgramIR(t *testing.T) {
	probe := &analysis.Analyzer{
		Name:     "ssaprobe",
		Doc:      "assert over the ssa Program built for the fixture",
		Requires: []*analysis.Analyzer{ssa.Analyzer},
		Run: func(pass *analysis.Pass) (interface{}, error) {
			pr := pass.ResultOf[ssa.Analyzer].(*ssa.Program)
			byName := make(map[string]*ssa.Func)
			for _, f := range pr.Funcs {
				byName[f.Obj.Name()] = f
			}
			for _, name := range []string{"leaf", "mid", "top", "pingA", "pingB", "callAlloc"} {
				if byName[name] == nil {
					t.Fatalf("Program is missing func %s", name)
				}
			}

			top := byName["top"]
			var lockB, unlockB, appendB, mutateB, midCallB, leafCallB *ssa.Block
			for _, b := range top.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					switch in.Kind {
					case ssa.KLock:
						lockB = b
						if in.LockKey != "Log.mu" {
							t.Errorf("lock key = %q, want Log.mu", in.LockKey)
						}
					case ssa.KUnlock:
						unlockB = b
					case ssa.KWALAppend:
						appendB = b
					case ssa.KMutate:
						mutateB = b
						if in.MutName != "Object.Append" {
							t.Errorf("mutator = %q, want Object.Append", in.MutName)
						}
					case ssa.KCall:
						for _, callee := range in.Callees {
							switch callee.Name() {
							case "mid":
								midCallB = b
							case "leaf":
								leafCallB = b
							}
						}
					}
				}
			}
			if lockB == nil || unlockB == nil || appendB == nil || mutateB == nil {
				t.Fatalf("top is missing classified instructions: lock=%v unlock=%v append=%v mutate=%v",
					lockB != nil, unlockB != nil, appendB != nil, mutateB != nil)
			}
			if midCallB == nil || leafCallB == nil {
				t.Fatalf("top is missing resolved branch calls")
			}
			if lockB != top.Entry {
				t.Errorf("lock is not in the entry block")
			}
			for _, b := range []*ssa.Block{unlockB, appendB, mutateB, midCallB, leafCallB} {
				if !top.Dominates(top.Entry, b) {
					t.Errorf("entry does not dominate block %d", b.Index)
				}
			}
			if top.Dominates(midCallB, appendB) {
				t.Errorf("branch block (mid call) must not dominate the join (append)")
			}
			if top.Dominates(leafCallB, appendB) {
				t.Errorf("branch block (leaf call) must not dominate the join (append)")
			}
			if !top.Dominates(appendB, mutateB) && appendB != mutateB {
				t.Errorf("append must dominate the mutation")
			}

			// SCC condensation: callees first, mutual recursion together.
			sccIndex := make(map[string]int)
			for i, scc := range pr.SCCs {
				for _, f := range scc {
					sccIndex[f.Obj.Name()] = i
				}
			}
			if !(sccIndex["leaf"] < sccIndex["mid"] && sccIndex["mid"] < sccIndex["top"]) {
				t.Errorf("SCC order is not bottom-up: leaf=%d mid=%d top=%d",
					sccIndex["leaf"], sccIndex["mid"], sccIndex["top"])
			}
			if sccIndex["pingA"] != sccIndex["pingB"] {
				t.Errorf("mutually recursive pingA/pingB are in different SCCs")
			}

			// Durability-event classification (eoslint v4): the
			// durability fixture function holds exactly one instruction
			// of each new kind, except the two meta writes.
			dur := byName["durability"]
			if dur == nil {
				t.Fatalf("Program is missing func durability")
			}
			counts := make(map[ssa.Kind]int)
			labels := make(map[ssa.Kind][]string)
			for _, b := range dur.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					counts[in.Kind]++
					labels[in.Kind] = append(labels[in.Kind], in.MutName)
				}
			}
			want := map[ssa.Kind]int{
				ssa.KWALForce:     2, // Force + ForceLSN
				ssa.KDevForce:     2, // FileVolume.ForceAll + Device.Force
				ssa.KSyncDir:      1,
				ssa.KRename:       1,
				ssa.KMetaWrite:    2, // writeHeader + writeCatalog
				ssa.KBuddyFree:    1,
				ssa.KBarrierStamp: 2, // Store + Load
				ssa.KAbortRec:     1, // RecCommit literal stays unclassified
				ssa.KWALAppend:    1,
				ssa.KHomeWrite:    1,
			}
			for k, n := range want {
				if counts[k] != n {
					t.Errorf("durability: kind %d count = %d (labels %v), want %d",
						k, counts[k], labels[k], n)
				}
			}
			for _, lbl := range []string{"Log.Force", "Log.ForceLSN", "FileVolume.ForceAll",
				"Device.Force", "Store.writeHeader", "Store.writeCatalog", "Manager.Free",
				"ReplacePlan.Apply"} {
				found := false
				for _, ls := range labels {
					for _, l := range ls {
						if l == lbl {
							found = true
						}
					}
				}
				if !found {
					t.Errorf("durability: no instruction labeled %q", lbl)
				}
			}

			// CHA: the interface call resolves to the fixture's concrete
			// implementation.
			found := false
			for _, b := range byName["callAlloc"].Blocks {
				for i := range b.Instrs {
					for _, callee := range b.Instrs[i].Callees {
						if callee.Name() == "Alloc" {
							found = true
						}
					}
				}
			}
			if !found {
				t.Errorf("CHA did not resolve the lob.Allocator.Alloc call to fakeAlloc.Alloc")
			}
			return nil, nil
		},
	}
	analyzertest.Run(t, "../testdata", probe, "eosssa")
}
