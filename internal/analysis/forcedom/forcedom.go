// Package forcedom defines the whole-program crash-consistency check:
// the paper's §4.5 write-ahead rule and the DESIGN.md §8.1
// force-ordering contracts, each verified as a dominance property over
// the ssa IR and lifted across function boundaries by per-function
// summaries.
//
// The crash-point sweep (internal/crashtest) finds these orderings
// dynamically, by enumerating crash states; this analyzer proves them
// statically, so a reordering regression fails the build instead of
// (maybe) a sweep.  Six contracts are checked:
//
//  1. Force-ahead: every in-place overwrite of previously-forced state
//     (lob Object.Replace, or Manager.PendHeld, a committed transaction's
//     held replaced pages entering the write-behind set, which may write
//     them home at any time after) is dominated by a WAL force of the
//     record that covers the write — its transaction's commit record —
//     which must be durable before the write can be the only copy of the
//     old bytes.
//  2. Two-phase checkpoint: the catalog image's append to the log and
//     the master record's write ((*Store).appendImage / writeMaster) are
//     dominated by a device force of the data pages they index, and the
//     master write also by a WAL force that follows the image append — the
//     master copy must never name an image the log may not hold.  The
//     append resets that half; it is checked within one function, which
//     is how the checkpoint issues both.
//  3. Durability quarantine: freed-extent reuse ((*buddy.Manager).Free
//     from the store layer) is dominated by a barrierDurable stamp
//     (Load before gating, Store after phase two).  The rule is active
//     only in packages that operate the barrier — a package with no
//     barrierDurable stamps has no quarantine to violate.  Pages no root
//     ever named go back through (*buddy.Manager).FreeUnpublished, which
//     is outside the contract: no catalog, durable or not, can reach them.
//  4. Rename atomicity: every os.Rename is followed on all success
//     paths by a disk.SyncDir of the owning directory, else the new
//     name may not survive a crash.
//  5. Data before commit: a transaction's commit record — the log append
//     of a record literal whose Type is RecCommit — is dominated by a
//     device force.  Its structural records name by reference pages it
//     wrote through, and once the record is in the log buffer any
//     committer's force may make it durable.  The force is the engine's
//     Txn.forceData, which forces when the transaction wrote through; as
//     everywhere, a call that may force discharges the rule.
//  6. Write-ahead (§4.5): every object mutation — a lob apply step: a
//     structural update's Object.Apply, Object.Destroy, the in-place
//     Object.Replace, and a transactional replace's ReplacePlan.Hold — is
//     dominated by a WAL append of its record.  What runs before the
//     record is a prepare step (PrepareAppend, PrepareInsert,
//     PrepareDelete, PrepareReplace), which writes only pages no root
//     names (§4.5: "the other three operations shadow"), and is no
//     mutation.  The Object methods that run a whole update (Append,
//     Insert, ...) reach Apply inside lob, and the facts carry that
//     exposure to their callers.  Txn.Abort applies nothing: it reinstates
//     the roots from before the transaction (Object.Reinstate, no event).
//
// Rules 1–3, 5 and 6 are dominance properties: a forward all-paths
// dataflow tracks "discharged on every path reaching here" per rule,
// greatest fixed point.  Rule 4 is a forward may-property: pending
// renames accumulate (union at joins) and must be cleared by a directory
// sync before any success exit; error exits (the rename itself failed)
// are exempt.
//
// Interprocedural propagation: per-function ForceFact summaries —
// may-discharge bits, a must-append bit, and per-rule exposure bits with
// witness chains — are computed bottom-up in SCC order (ssa's Solve) and
// exported as object facts.  Discharge of rules 1–3 and 5 through a
// callee is a MAY property (the callee forces on some path): the engine's
// force helpers (the checkpoint's writeCaptured) return early on I/O
// errors, and on those paths the caller's subsequent writes never
// execute either, so treating the call as discharging is sound for
// those orderings and avoids error-path false positives.  Rule 6 asks
// more: a callee discharges it only if it appends on every path to
// return (AppendsAll), since a helper that logs on one path leaves the
// caller's mutation unlogged on the other.  Interface calls use the CHA
// resolution: a call is exposed or may discharge if any candidate is or
// does, and appends on every path only if every candidate does.  Within
// a single function the check is exact dominance.
//
// Rules 1, 5 and 6 root at the exported methods of the transaction type
// (-recv, default "Txn"), where the obligations start; rules 2–4 root at
// every exported function.  Unexported helpers are summarized, not
// reported, so a helper whose every caller discharges first stays
// silent.  Where a report fires, the dominator tree supplies evidence: if
// a discharging instruction exists but fails to dominate the event, the
// diagnostic names its line and carries it as a related position
// (surfaced as SARIF relatedLocations).
package forcedom

import (
	"fmt"
	"go/ast"
	"strings"

	"golang.org/x/tools/go/analysis"

	"github.com/eosdb/eos/internal/analysis/eosutil"
	"github.com/eosdb/eos/internal/analysis/ignore"
	"github.com/eosdb/eos/internal/analysis/ssa"
)

const doc = `check §4.5 write-ahead and §8.1 force-ordering contracts by dominance (whole-program)

Crash consistency is an ordering property: the WAL record before the
mutation it describes, its force before the in-place write it protects,
the data force and the image's log force before the checkpoint's master
record, the quarantine stamp before freed-extent reuse, the directory
sync after the rename.  Each is verified on the dominator tree with
interprocedural discharge/exposure summaries propagated via analysis
facts, so a helper that logs or forces counts as the discharge and a
helper that mutates counts as the event.`

// Analyzer is the forcedom analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "forcedom",
	Doc:       doc,
	Requires:  []*analysis.Analyzer{ssa.Analyzer, ignore.Analyzer},
	Run:       run,
	FactTypes: []analysis.Fact{new(ForceFact)},
}

var recvFlag string

func init() {
	Analyzer.Flags.StringVar(&recvFlag, "recv", "Txn",
		"comma-separated receiver type names whose methods must log before mutating and force before overwriting")
}

// Discharge indices: the event classes that satisfy an ordering
// obligation.
const (
	dAppend   = iota // (*wal.Log).Append
	dWALForce        // (*wal.Log).Force / ForceLSN
	dDevForce        // device Force / ForceAll / ForceAllExcept
	dStamp           // Load/Store on a barrierDurable field
	nDischarge
)

// discharges names each discharge class: the instruction kind that
// performs it, and what a report calls it.
var discharges = [nDischarge]struct {
	kind ssa.Kind
	noun string
}{
	dAppend:   {ssa.KWALAppend, "append"},
	dWALForce: {ssa.KWALForce, "WAL force"},
	dDevForce: {ssa.KDevForce, "device force"},
	dStamp:    {ssa.KBarrierStamp, "barrierDurable stamp"},
}

// Dominance-rule indices.
const (
	rReplace = iota // force-ahead: WAL force before Object.Replace / Manager.PendHeld
	rMeta           // two-phase checkpoint: device force before meta write
	rMaster         // two-phase checkpoint: WAL force of the image before the master write
	rFree           // quarantine: barrier stamp before Manager.Free
	rCommit         // data before commit: device force before the commit record's append
	rWAL            // write-ahead: WAL append before an object mutation
	nDomRules
)

// domRules declares the dominance rules.  txnOnly restricts roots to the
// -recv transaction methods; the others root at every exported function.
// A report of an event in the root itself formats direct with the
// event's label; one of a call that reaches an event formats call with
// the event's label and the call chain.
var domRules = [nDomRules]struct {
	discharge int
	txnOnly   bool
	direct    string
	call      string
}{
	rReplace: {dWALForce, true,
		"in-place overwrite %[1]s is not dominated by a WAL force of the record that covers the write (§8.1 force-ahead rule)",
		"call can overwrite previously-forced object state in place before a WAL force of the record that covers the write (call chain %[2]s) (§8.1 force-ahead rule)"},
	rMeta: {dDevForce, false,
		"checkpoint metadata write %[1]s is not dominated by a device force of the data pages it indexes (§8.1 two-phase checkpoint)",
		"call can write checkpoint metadata before a device force of the data pages it indexes (call chain %[2]s) (§8.1 two-phase checkpoint)"},
	rMaster: {dWALForce, false,
		"master record write %[1]s is not dominated by a WAL force behind the image append (§8.1 two-phase checkpoint)",
		"call can write the master record before a WAL force behind the image append (call chain %[2]s) (§8.1 two-phase checkpoint)"},
	rFree: {dStamp, false,
		"freed-extent release %[1]s is not dominated by a barrierDurable quarantine stamp (§8.1 durability quarantine)",
		"call can return freed extents to the allocator before a barrierDurable quarantine stamp (call chain %[2]s) (§8.1 durability quarantine)"},
	rCommit: {dDevForce, true,
		"commit record append %[1]s is not dominated by a device force of the pages its records name by reference (§8.1 data-before-commit rule)",
		"call can append a commit record before a device force of the pages its records name by reference (call chain %[2]s) (§8.1 data-before-commit rule)"},
	rWAL: {dAppend, true,
		"mutation %[1]s can execute before its WAL record is appended; log first (§4.5 write-ahead rule)",
		"call can mutate %[1]s before this transaction's WAL record is appended (call chain %[2]s); log first (§4.5 write-ahead rule)"},
}

// ForceFact is the exported per-function summary.
type ForceFact struct {
	// May: the function performs the indexed discharge on some path.
	May [nDischarge]bool
	// AppendsAll: every path to return appends a WAL record.
	AppendsAll bool
	// Exposed: some path reaches the indexed rule's event before this
	// function has discharged it on that path.
	Exposed [nDomRules]bool
	// Witness is the call chain from this function to each exposure.
	Witness [nDomRules][]string
	// RenameOpen: some success-exit path leaves a rename with no
	// directory sync.
	RenameOpen bool
	// RenameWitness is the chain to the open rename.
	RenameWitness []string
}

// AFact marks ForceFact as an analysis fact.
func (*ForceFact) AFact() {}

func (f *ForceFact) String() string {
	var parts []string
	for d, name := range [nDischarge]string{"append", "walforce", "devforce", "stamp"} {
		if f.May[d] {
			parts = append(parts, "may-"+name)
		}
	}
	if f.AppendsAll {
		parts = append(parts, "appends-all")
	}
	for i, names := range [nDomRules]string{"replace", "meta", "master", "free", "commit", "wal"} {
		if f.Exposed[i] {
			parts = append(parts, "exposed-"+names)
		}
	}
	if f.RenameOpen {
		parts = append(parts, "rename-open")
	}
	return "force(" + strings.Join(parts, ",") + ")"
}

func (f *ForceFact) empty() bool {
	return f.May == [nDischarge]bool{} && !f.AppendsAll &&
		f.Exposed == [nDomRules]bool{} && !f.RenameOpen
}

// dischargesRule reports whether a call whose merged callee summary is f
// discharges rule r: through an append on every path for the
// write-ahead rule, through a discharge on some path for the others.
func (f *ForceFact) dischargesRule(r int) bool {
	if r == rWAL {
		return f.AppendsAll
	}
	return f.May[domRules[r].discharge]
}

func run(pass *analysis.Pass) (interface{}, error) {
	pr := pass.ResultOf[ssa.Analyzer].(*ssa.Program)
	ig := ignore.For(pass)

	c := &checker{pass: pass, pr: pr, ig: ig, summaries: make(map[*ssa.Func]*ForceFact)}
	c.quarantined = c.packageStamps()
	// Every bit but AppendsAll only turns on; AppendsAll starts
	// optimistic and only turns off.
	pr.Solve(func(f *ssa.Func) { c.summaries[f] = &ForceFact{AppendsAll: true} }, c.updateSummary)
	for f, sum := range c.summaries {
		if !sum.empty() {
			pass.ExportObjectFact(f.Obj, sum)
		}
	}

	recvs := make(map[string]bool)
	for _, r := range strings.Split(recvFlag, ",") {
		if r = strings.TrimSpace(r); r != "" {
			recvs[r] = true
		}
	}
	for _, f := range pr.Funcs {
		if !f.Obj.Exported() || eosutil.InTestFile(pass, f.Decl.Pos()) {
			continue
		}
		tn := eosutil.ReceiverType(f.Obj)
		c.checkRoot(f, tn != nil && recvs[tn.Name()])
	}
	return nil, nil
}

type checker struct {
	pass      *analysis.Pass
	pr        *ssa.Program
	ig        *ignore.Reporter
	summaries map[*ssa.Func]*ForceFact
	// quarantined: the package operates the durability-quarantine
	// barrier, activating rule 3.
	quarantined bool
}

// packageStamps reports whether any function stamps or consults the
// quarantine barrier.
func (c *checker) packageStamps() bool {
	for _, f := range c.pr.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Kind == ssa.KBarrierStamp {
					return true
				}
			}
		}
	}
	return false
}

func (c *checker) updateSummary(f *ssa.Func) bool {
	sum := c.summaries[f]
	fresh := c.analyze(f, nil)
	changed := false
	for d := range discharges {
		if fresh.May[d] && !sum.May[d] {
			sum.May[d] = true
			changed = true
		}
	}
	if !fresh.AppendsAll && sum.AppendsAll {
		sum.AppendsAll = false
		changed = true
	}
	for r := range domRules {
		if fresh.Exposed[r] && !sum.Exposed[r] {
			sum.Exposed[r] = true
			sum.Witness[r] = fresh.Witness[r]
			changed = true
		}
	}
	if fresh.RenameOpen && !sum.RenameOpen {
		sum.RenameOpen = true
		sum.RenameWitness = fresh.RenameWitness
		changed = true
	}
	return changed
}

// calleeSummary merges the summaries of a call's CHA candidates: a bit
// turns on if any candidate has it, except AppendsAll, which needs
// every candidate (and at least one).
func (c *checker) calleeSummary(in *ssa.Instr) *ForceFact {
	merged := ForceFact{AppendsAll: len(in.Callees) > 0}
	for _, callee := range in.Callees {
		cf := ssa.Summary(c.pr, c.summaries, callee)
		if cf == nil {
			merged.AppendsAll = false
			continue
		}
		label := ssa.FuncLabel(c.pass.Pkg, callee)
		for d := range discharges {
			merged.May[d] = merged.May[d] || cf.May[d]
		}
		merged.AppendsAll = merged.AppendsAll && cf.AppendsAll
		for r := range domRules {
			if cf.Exposed[r] && !merged.Exposed[r] {
				merged.Exposed[r] = true
				merged.Witness[r] = ssa.Chain(label, cf.Witness[r])
			}
		}
		if cf.RenameOpen && !merged.RenameOpen {
			merged.RenameOpen = true
			merged.RenameWitness = ssa.Chain(label, cf.RenameWitness)
		}
	}
	return &merged
}

// finding is one violation found by the dataflow.
type finding struct {
	rule    int // nDomRules means the rename rule
	in      *ssa.Instr
	block   *ssa.Block
	witness []string
	direct  bool // event in the root itself (vs through a call)
}

const rRename = nDomRules

// eventRules classifies in as an event of the dominance rules it returns.
func (c *checker) eventRules(in *ssa.Instr) []int {
	switch in.Kind {
	case ssa.KMutate:
		if in.MutName == "Object.Replace" {
			return []int{rWAL, rReplace}
		}
		return []int{rWAL}
	case ssa.KHomeWrite:
		return []int{rReplace}
	case ssa.KWALAppend:
		if in.Commit {
			return []int{rCommit}
		}
	case ssa.KMetaWrite:
		if in.MutName == "Store.writeMaster" {
			return []int{rMeta, rMaster}
		}
		return []int{rMeta}
	case ssa.KBuddyFree:
		if c.quarantined {
			return []int{rFree}
		}
	}
	return nil
}

// dischargeOf maps an instruction kind to the discharge class it
// performs, or -1.
func dischargeOf(k ssa.Kind) int {
	for d := range discharges {
		if discharges[d].kind == k {
			return d
		}
	}
	return -1
}

type domState [nDomRules]bool

// step applies in's effect on the discharged state: a discharging
// instruction discharges its rules, the catalog image's append reopens
// the master rule (the WAL forces before it no longer cover what the
// master record will name), and a call discharges what its callees do.
// cs is the call's merged callee summary, nil for other instructions.
func step(in *ssa.Instr, cs *ForceFact, st *domState) {
	if d := dischargeOf(in.Kind); d >= 0 {
		for r := range domRules {
			if domRules[r].discharge == d {
				st[r] = true
			}
		}
	}
	if in.Kind == ssa.KMetaWrite && in.MutName == "Store.appendImage" {
		st[rMaster] = false
	}
	if cs != nil {
		for r := range domRules {
			if cs.dischargesRule(r) {
				st[r] = true
			}
		}
	}
}

// analyze runs both dataflows over f and returns its summary.  When
// report is non-nil (root functions), violations are appended to it.
func (c *checker) analyze(f *ssa.Func, report *[]finding) *ForceFact {
	sum := &ForceFact{}
	if f.Entry == nil {
		return sum
	}
	n := len(f.Blocks)
	callees := func(in *ssa.Instr) *ForceFact {
		if in.Kind == ssa.KCall {
			return c.calleeSummary(in)
		}
		return nil
	}

	// --- Dominance rules: all-paths "discharged" state per rule,
	// greatest fixed point (optimistic init, entry pessimistic).
	inState := make([]domState, n)
	outState := make([]domState, n)
	for i := range inState {
		for r := range domRules {
			inState[i][r] = true
			outState[i][r] = true
		}
	}
	inState[f.Entry.Index] = domState{}

	preds := make([][]*ssa.Block, n)
	var exits []*ssa.Block
	for _, b := range f.Blocks {
		if !f.Reachable(b) {
			continue
		}
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], b)
		}
		if len(b.Succs) == 0 && b.Raw.Live {
			exits = append(exits, b)
		}
	}

	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if !f.Reachable(b) {
				continue
			}
			var in domState
			if b != f.Entry {
				for r := range domRules {
					in[r] = true
				}
				for _, p := range preds[b.Index] {
					for r := range domRules {
						in[r] = in[r] && outState[p.Index][r]
					}
				}
			}
			out := in
			for i := range b.Instrs {
				step(&b.Instrs[i], callees(&b.Instrs[i]), &out)
			}
			if in != inState[b.Index] || out != outState[b.Index] {
				inState[b.Index] = in
				outState[b.Index] = out
				changed = true
			}
		}
	}

	// Final pass: May bits, exposures, reports.
	for _, b := range f.Blocks {
		if !f.Reachable(b) {
			continue
		}
		st := inState[b.Index]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, r := range c.eventRules(in) {
				if st[r] {
					continue
				}
				// A justified eoslint:ignore at the event stops exposure
				// here: the exception covers every caller, not just the
				// enclosing function's own report.
				if !sum.Exposed[r] && !c.ig.Suppressed(in.Pos()) {
					sum.Exposed[r] = true
					sum.Witness[r] = []string{eventLabel(in)}
				}
				if report != nil {
					*report = append(*report, finding{rule: r, in: in, block: b, direct: true,
						witness: []string{eventLabel(in)}})
				}
			}
			if d := dischargeOf(in.Kind); d >= 0 {
				sum.May[d] = true
			}
			cs := callees(in)
			if cs != nil {
				for d := range discharges {
					sum.May[d] = sum.May[d] || cs.May[d]
				}
				for r := range domRules {
					if !cs.Exposed[r] || st[r] {
						continue
					}
					if !sum.Exposed[r] {
						sum.Exposed[r] = true
						sum.Witness[r] = cs.Witness[r]
					}
					if report != nil {
						*report = append(*report, finding{rule: r, in: in, block: b,
							witness: cs.Witness[r]})
					}
				}
			}
			step(in, cs, &st)
		}
	}
	sum.AppendsAll = len(exits) > 0
	for _, b := range exits {
		sum.AppendsAll = sum.AppendsAll && outState[b.Index][rWAL]
	}

	c.renameFlow(f, preds, exits, sum, report)
	return sum
}

// renameFlow is the forward may-analysis of rule 4: pending renames
// union at joins and must be cleared by a directory sync before any
// success exit.
func (c *checker) renameFlow(f *ssa.Func, preds [][]*ssa.Block, exits []*ssa.Block, sum *ForceFact, report *[]finding) {
	n := len(f.Blocks)
	pendIn := make([]map[*ssa.Instr][]string, n)
	pendOut := make([]map[*ssa.Instr][]string, n)

	transfer := func(b *ssa.Block, in map[*ssa.Instr][]string) map[*ssa.Instr][]string {
		out := make(map[*ssa.Instr][]string, len(in))
		for k, v := range in {
			out[k] = v
		}
		for i := range b.Instrs {
			instr := &b.Instrs[i]
			switch instr.Kind {
			case ssa.KRename:
				if !c.ig.Suppressed(instr.Pos()) {
					out[instr] = []string{"os.Rename"}
				}
			case ssa.KSyncDir:
				out = map[*ssa.Instr][]string{}
			case ssa.KCall:
				if cs := c.calleeSummary(instr); cs.RenameOpen {
					out[instr] = cs.RenameWitness
				}
			}
		}
		return out
	}

	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if !f.Reachable(b) {
				continue
			}
			in := make(map[*ssa.Instr][]string)
			for _, p := range preds[b.Index] {
				for k, v := range pendOut[p.Index] {
					in[k] = v
				}
			}
			out := transfer(b, in)
			if len(in) != len(pendIn[b.Index]) || len(out) != len(pendOut[b.Index]) {
				pendIn[b.Index] = in
				pendOut[b.Index] = out
				changed = true
			}
		}
	}

	reported := make(map[*ssa.Instr]bool)
	for _, b := range exits {
		pending := pendOut[b.Index]
		if len(pending) == 0 || c.errorExit(b) {
			continue
		}
		for in, witness := range pending {
			if !sum.RenameOpen {
				sum.RenameOpen = true
				sum.RenameWitness = witness
			}
			if report != nil && !reported[in] {
				reported[in] = true
				*report = append(*report, finding{rule: rRename, in: in, block: b,
					witness: witness, direct: in.Kind == ssa.KRename})
			}
		}
	}
}

// errorExit reports whether block b is a failure return: the §8.1
// rename rule exempts paths where the rename itself failed.  A return
// whose final value is an error-typed identifier ("return err") or an
// error-wrap constructor ("return fmt.Errorf(...)") is a failure path;
// a tail call to anything else ("return os.Rename(...)") can succeed
// and stays a success exit.
func (c *checker) errorExit(b *ssa.Block) bool {
	for _, node := range b.Raw.Nodes {
		ret, ok := node.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			continue
		}
		switch e := ret.Results[len(ret.Results)-1].(type) {
		case *ast.Ident:
			if e.Name == "nil" {
				return false
			}
			tv, ok := c.pass.TypesInfo.Types[e]
			return ok && eosutil.IsErrorType(tv.Type)
		case *ast.CallExpr:
			if fn := eosutil.Callee(c.pass.TypesInfo, e); fn != nil && fn.Pkg() != nil {
				switch fn.Pkg().Path() {
				case "fmt", "errors":
					return true
				}
			}
			return false
		}
		return false
	}
	return false
}

func eventLabel(in *ssa.Instr) string {
	if in.MutName != "" {
		return in.MutName
	}
	return "event"
}

// checkRoot reports every violation in a root function.  txnRoot
// additionally activates the rules whose obligation starts at the
// transaction API surface.
func (c *checker) checkRoot(f *ssa.Func, txnRoot bool) {
	var findings []finding
	c.analyze(f, &findings)
	// An overwrite with no record appended before it has no record to
	// force either: the write-ahead report covers it.
	unlogged := make(map[*ssa.Instr]bool)
	for _, fd := range findings {
		if fd.rule == rWAL {
			unlogged[fd.in] = true
		}
	}
	for _, fd := range findings {
		if fd.rule < nDomRules && domRules[fd.rule].txnOnly && !txnRoot ||
			fd.rule == rReplace && unlogged[fd.in] {
			continue
		}
		var msg string
		chain := ssa.FuncLabel(c.pass.Pkg, f.Obj) + " → " + strings.Join(fd.witness, " → ")
		switch {
		case fd.rule == rRename && fd.direct:
			msg = "renamed file can vanish on crash: no disk.SyncDir of the owning directory reaches a success exit (§8.1 rename atomicity)"
		case fd.rule == rRename:
			msg = fmt.Sprintf(
				"call leaves a renamed file with no owning-directory sync on a success exit (call chain %s) (§8.1 rename atomicity)", chain)
		case fd.direct:
			msg = fmt.Sprintf(domRules[fd.rule].direct, eventLabel(fd.in))
		default:
			msg = fmt.Sprintf(domRules[fd.rule].call, fd.witness[len(fd.witness)-1], chain)
		}
		var related []analysis.RelatedInformation
		if in, subject, claim := c.evidence(f, fd); in != nil {
			msg += fmt.Sprintf("; %s at line %d %s", subject, c.pass.Fset.Position(in.Pos()).Line, claim)
			related = []analysis.RelatedInformation{{Pos: in.Pos(), Message: subject + " here " + claim}}
		}
		c.ig.ReportRelated(fd.in.Pos(), related, "%s", msg)
	}
}

// evidence finds a discharging instruction in f that exists but fails
// to dominate the finding — the "the discharge is there, but a path
// skips it" case — and returns it with the words that say so.
func (c *checker) evidence(f *ssa.Func, fd finding) (in *ssa.Instr, subject, claim string) {
	kind, subject, claim := ssa.KSyncDir, "the directory sync", "does not cover every success path"
	if fd.rule != rRename {
		d := discharges[domRules[fd.rule].discharge]
		kind, subject, claim = d.kind, "the "+d.noun, "does not dominate this call"
	}
	for _, b := range f.Blocks {
		if !f.Reachable(b) {
			continue
		}
		for i := range b.Instrs {
			if b.Instrs[i].Kind == kind && (fd.rule == rRename || !f.Dominates(b, fd.block)) {
				return &b.Instrs[i], subject, claim
			}
		}
	}
	return nil, "", ""
}
