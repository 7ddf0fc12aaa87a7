// Package forcedom defines the whole-program crash-consistency check:
// the DESIGN.md §8.1 force-ordering contracts verified as dominance
// properties over the ssa IR, lifted across function boundaries the
// same way walfirstip lifts the §4.5 write-ahead rule.
//
// PR 8's crash-point sweep found these orderings dynamically, by
// enumerating crash states; this analyzer proves them statically, so a
// reordering regression fails the build instead of (maybe) a nightly
// sweep.  Five contracts are checked:
//
//  1. Force-ahead: every in-place overwrite of previously-forced state
//     (lob Object.Replace, or ReplacePlan.Apply for a replace whose
//     write was deferred) is dominated by a WAL force — the pre-image
//     record must be durable before it is the only copy of the old
//     bytes.
//  2. Two-phase checkpoint: header/catalog writes ((*Store).writeHeader
//     / writeCatalog) are dominated by a device force of the data pages
//     they index.
//  3. Abort ordering: the abort record (wal.Record{Type: RecAbort}) is
//     constructed only after a device force makes the compensations it
//     acknowledges durable.
//  4. Durability quarantine: freed-extent reuse ((*buddy.Manager).Free
//     from the store layer) is dominated by a barrierDurable stamp
//     (Load before gating, Store after phase two).  The rule is active
//     only in packages that operate the barrier — a package with no
//     barrierDurable stamps has no quarantine to violate.  Pages no root
//     ever named go back through (*buddy.Manager).FreeUnpublished, which
//     is outside the contract: no catalog, durable or not, can reach them.
//  5. Rename atomicity: every os.Rename is followed on all success
//     paths by a disk.SyncDir of the owning directory, else the new
//     name may not survive a crash.
//
// Rules 1–4 are backward (dominance) properties: a forward all-paths
// dataflow tracks "discharged on every path reaching here" per rule,
// exactly like walfirstip's logged-state analysis.  Rule 5 is a
// forward may-property: pending renames accumulate (union at joins)
// and must be cleared by a directory sync before any success exit;
// error exits (the rename itself failed) are exempt.
//
// Interprocedural propagation follows the walfirstip pattern:
// per-function ForceFact summaries — may-discharge bits and per-rule
// exposure bits with witness chains — computed bottom-up in SCC order
// and exported as object facts.  Discharge through a callee is a MAY
// property (the callee forces on some path): the engine's force
// helpers (forceDurableLocked, checkpointLocked) return early on I/O
// errors, and on those paths the caller's subsequent writes never
// execute either, so treating the call as discharging is sound for
// the orderings checked here and avoids error-path false positives.
// Within a single function the check is exact dominance.
//
// Rule 1 roots are the exported methods of the transaction type
// (-recv, default "Txn"), where the force-ahead obligation starts;
// rules 2–5 root at every exported function.  Unexported helpers are
// summarized, not reported.  Where a report fires, the dominator tree
// supplies evidence: if a discharging instruction exists but fails to
// dominate the event, the diagnostic carries a related position
// naming it (surfaced as SARIF relatedLocations).
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

const doc = `check §8.1 force-ordering contracts by dominance (whole-program)

Crash consistency is an ordering property: the WAL record before the
in-place write it protects, the data force before the checkpoint
header, the compensation force before the abort record, the quarantine
stamp before freed-extent reuse, the directory sync after the rename.
Each is verified on the dominator tree with interprocedural
may-force/exposure summaries propagated via analysis facts, so the
orderings PR 8's crash sweep found dynamically are machine-checked on
every build.`

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
		"comma-separated receiver type names whose methods must force before overwriting")
}

// Discharge indices: the three event classes that satisfy an ordering
// obligation.
const (
	dWALForce = iota // (*wal.Log).Force / ForceLSN
	dDevForce        // device Force / ForceAll / ForceAllExcept
	dStamp           // Load/Store on a barrierDurable field
	nDischarge
)

// Dominance-rule indices.
const (
	rReplace = iota // force-ahead: WAL force before Object.Replace / ReplacePlan.Apply
	rMeta           // two-phase checkpoint: device force before meta write
	rAbort          // abort ordering: device force before RecAbort literal
	rFree           // quarantine: barrier stamp before Manager.Free
	nDomRules
)

// domRules declares the four dominance contracts.  txnOnly restricts
// roots to the -recv transaction methods; the others root at every
// exported function.
var domRules = [nDomRules]struct {
	discharge int
	txnOnly   bool
	evDesc    string // direct-event description prefix ("" to use only the label)
	callDesc  string // what the callee can reach, for call-site reports
	dischDesc string // the missing dominator
	contract  string // the §8.1 clause
}{
	rReplace: {dWALForce, true,
		"in-place overwrite", "overwrite previously-forced object state in place",
		"a WAL force of its pre-image record", "§8.1 force-ahead rule"},
	rMeta: {dDevForce, false,
		"checkpoint metadata write", "write checkpoint metadata",
		"a device force of the data pages it indexes", "§8.1 two-phase checkpoint"},
	rAbort: {dDevForce, false,
		"abort-record construction", "construct the abort record",
		"a device force of its compensations", "§8.1 abort ordering"},
	rFree: {dStamp, false,
		"freed-extent release", "return freed extents to the allocator",
		"a barrierDurable quarantine stamp", "§8.1 durability quarantine"},
}

// ForceFact is the exported per-function force-ordering summary.
type ForceFact struct {
	// May: the function performs the indexed discharge on some path.
	May [nDischarge]bool
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
	for i, names := range [nDischarge]string{"walforce", "devforce", "stamp"} {
		if f.May[i] {
			parts = append(parts, "may-"+names)
		}
	}
	for i, names := range [nDomRules]string{"replace", "meta", "abort", "free"} {
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
	for _, b := range f.May {
		if b {
			return false
		}
	}
	for _, b := range f.Exposed {
		if b {
			return false
		}
	}
	return !f.RenameOpen
}

// maxChain bounds recorded witness chains.
const maxChain = 8

func run(pass *analysis.Pass) (interface{}, error) {
	pr := pass.ResultOf[ssa.Analyzer].(*ssa.Program)
	ig := ignore.For(pass)

	c := &checker{pass: pass, pr: pr, ig: ig, summaries: make(map[*ssa.Func]*ForceFact)}
	c.quarantined = c.packageStamps()
	c.summarize()
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
		if !f.Obj.Exported() || c.inTestFile(f) {
			continue
		}
		c.checkRoot(f, recvs[recvTypeName(f.Decl)])
	}
	return nil, nil
}

type checker struct {
	pass      *analysis.Pass
	pr        *ssa.Program
	ig        *ignore.Reporter
	summaries map[*ssa.Func]*ForceFact
	// quarantined: the package operates the durability-quarantine
	// barrier, activating rule 4.
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

func (c *checker) inTestFile(f *ssa.Func) bool {
	return strings.HasSuffix(c.pass.Fset.Position(f.Decl.Pos()).Filename, "_test.go")
}

// summarize computes per-function summaries bottom-up, iterating each
// SCC to a fixed point.  Every bit is monotone (May and Exposed only
// turn on), so the iteration converges.
func (c *checker) summarize() {
	for _, scc := range c.pr.SCCs {
		for _, f := range scc {
			c.summaries[f] = &ForceFact{}
		}
		for changed := true; changed; {
			changed = false
			for _, f := range scc {
				if c.updateSummary(f) {
					changed = true
				}
			}
		}
	}
}

func (c *checker) updateSummary(f *ssa.Func) bool {
	sum := c.summaries[f]
	fresh := c.analyze(f, nil)
	changed := false
	for i := 0; i < nDischarge; i++ {
		if fresh.May[i] && !sum.May[i] {
			sum.May[i] = true
			changed = true
		}
	}
	for r := 0; r < nDomRules; r++ {
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

// calleeSummary merges the summaries of a call's CHA candidates:
// exposed/may bits turn on if any candidate has them (may semantics
// throughout; see the package comment for why may-discharge is sound
// here).
func (c *checker) calleeSummary(in *ssa.Instr) *ForceFact {
	var merged ForceFact
	for _, callee := range in.Callees {
		var cf *ForceFact
		if f, ok := c.pr.ByObj[callee]; ok {
			cf = c.summaries[f]
		} else {
			var imported ForceFact
			if c.pass.ImportObjectFact(callee, &imported) {
				cf = &imported
			}
		}
		if cf == nil {
			continue
		}
		label := ssa.FuncLabel(c.pass.Pkg, callee)
		for i := 0; i < nDischarge; i++ {
			merged.May[i] = merged.May[i] || cf.May[i]
		}
		for r := 0; r < nDomRules; r++ {
			if cf.Exposed[r] && !merged.Exposed[r] {
				merged.Exposed[r] = true
				merged.Witness[r] = chain(label, cf.Witness[r])
			}
		}
		if cf.RenameOpen && !merged.RenameOpen {
			merged.RenameOpen = true
			merged.RenameWitness = chain(label, cf.RenameWitness)
		}
	}
	return &merged
}

func chain(head string, rest []string) []string {
	out := append([]string{head}, rest...)
	if len(out) > maxChain {
		out = out[:maxChain]
	}
	return out
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

// eventRule classifies in as a dominance-rule event, returning the
// rule index or -1.
func (c *checker) eventRule(in *ssa.Instr) int {
	switch in.Kind {
	case ssa.KMutate:
		if in.MutName == "Object.Replace" {
			return rReplace
		}
	case ssa.KHomeWrite:
		return rReplace
	case ssa.KMetaWrite:
		return rMeta
	case ssa.KAbortRec:
		return rAbort
	case ssa.KBuddyFree:
		if c.quarantined {
			return rFree
		}
	}
	return -1
}

// dischargeOf maps an instruction kind to the discharge class it
// satisfies, or -1.
func dischargeOf(k ssa.Kind) int {
	switch k {
	case ssa.KWALForce:
		return dWALForce
	case ssa.KDevForce:
		return dDevForce
	case ssa.KBarrierStamp:
		return dStamp
	}
	return -1
}

// analyze runs both dataflows over f and returns its summary.  When
// report is non-nil (root functions), violations are appended to it.
func (c *checker) analyze(f *ssa.Func, report *[]finding) *ForceFact {
	sum := &ForceFact{}
	if f.Entry == nil {
		return sum
	}
	n := len(f.Blocks)

	// --- Dominance rules: all-paths "discharged" state per rule,
	// greatest fixed point (optimistic init, entry pessimistic).
	type domState [nDomRules]bool
	inState := make([]domState, n)
	outState := make([]domState, n)
	for i := range inState {
		for r := 0; r < nDomRules; r++ {
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

	transfer := func(b *ssa.Block, st domState) domState {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if d := dischargeOf(in.Kind); d >= 0 {
				for r := 0; r < nDomRules; r++ {
					if domRules[r].discharge == d {
						st[r] = true
					}
				}
				continue
			}
			if in.Kind == ssa.KCall {
				cs := c.calleeSummary(in)
				for r := 0; r < nDomRules; r++ {
					if cs.May[domRules[r].discharge] {
						st[r] = true
					}
				}
			}
		}
		return st
	}

	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if !f.Reachable(b) {
				continue
			}
			var in domState
			if b != f.Entry {
				for r := 0; r < nDomRules; r++ {
					in[r] = true
				}
				for _, p := range preds[b.Index] {
					for r := 0; r < nDomRules; r++ {
						in[r] = in[r] && outState[p.Index][r]
					}
				}
			}
			out := transfer(b, in)
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
			if d := dischargeOf(in.Kind); d >= 0 {
				sum.May[d] = true
				for r := 0; r < nDomRules; r++ {
					if domRules[r].discharge == d {
						st[r] = true
					}
				}
				continue
			}
			if r := c.eventRule(in); r >= 0 && !st[r] {
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
			if in.Kind == ssa.KCall {
				cs := c.calleeSummary(in)
				for d := 0; d < nDischarge; d++ {
					sum.May[d] = sum.May[d] || cs.May[d]
				}
				for r := 0; r < nDomRules; r++ {
					if cs.Exposed[r] && !st[r] {
						if !sum.Exposed[r] {
							sum.Exposed[r] = true
							sum.Witness[r] = cs.Witness[r]
						}
						if report != nil {
							*report = append(*report, finding{rule: r, in: in, block: b,
								witness: cs.Witness[r]})
						}
					}
					if cs.May[domRules[r].discharge] {
						st[r] = true
					}
				}
			}
		}
	}

	c.renameFlow(f, preds, exits, sum, report)
	return sum
}

// renameFlow is the forward may-analysis of rule 5: pending renames
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
	if in.Kind == ssa.KAbortRec {
		return "wal.Record{Type: RecAbort}"
	}
	return "event"
}

// checkRoot reports every violation in a root function.  txnRoot
// additionally activates rule 1, whose obligation starts at the
// transaction API surface.
func (c *checker) checkRoot(f *ssa.Func, txnRoot bool) {
	var findings []finding
	c.analyze(f, &findings)
	for _, fd := range findings {
		if fd.rule < nDomRules && domRules[fd.rule].txnOnly && !txnRoot {
			continue
		}
		pos := fd.in.Pos()
		related := c.evidence(f, fd)
		var msg string
		if fd.rule == rRename {
			if fd.direct {
				msg = "renamed file can vanish on crash: no disk.SyncDir of the owning directory reaches a success exit (§8.1 rename atomicity)"
			} else {
				msg = fmt.Sprintf(
					"call leaves a renamed file with no owning-directory sync on a success exit (call chain %s → %s) (§8.1 rename atomicity)",
					ssa.FuncLabel(c.pass.Pkg, f.Obj), strings.Join(fd.witness, " → "))
			}
		} else {
			rule := &domRules[fd.rule]
			if fd.direct {
				msg = fmt.Sprintf("%s %s is not dominated by %s (%s)",
					rule.evDesc, eventLabel(fd.in), rule.dischDesc, rule.contract)
			} else {
				msg = fmt.Sprintf("call can %s before %s (call chain %s → %s) (%s)",
					rule.callDesc, rule.dischDesc,
					ssa.FuncLabel(c.pass.Pkg, f.Obj), strings.Join(fd.witness, " → "),
					rule.contract)
			}
		}
		c.ig.ReportRelated(pos, related, "%s", msg)
	}
}

// evidence finds a discharging instruction in f that exists but fails
// to dominate the finding — the "force is there, but a path skips it"
// case — and returns it as a related position.
func (c *checker) evidence(f *ssa.Func, fd finding) []analysis.RelatedInformation {
	var wantKind ssa.Kind
	var what string
	if fd.rule == rRename {
		wantKind, what = ssa.KSyncDir, "directory sync here does not cover every success path"
	} else {
		switch domRules[fd.rule].discharge {
		case dWALForce:
			wantKind, what = ssa.KWALForce, "candidate WAL force here does not dominate the overwrite"
		case dDevForce:
			wantKind, what = ssa.KDevForce, "candidate device force here does not dominate the event"
		case dStamp:
			wantKind, what = ssa.KBarrierStamp, "candidate barrier stamp here does not dominate the release"
		}
	}
	for _, b := range f.Blocks {
		if !f.Reachable(b) {
			continue
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Kind != wantKind {
				continue
			}
			if fd.rule == rRename || !f.Dominates(b, fd.block) {
				return []analysis.RelatedInformation{{Pos: in.Pos(), Message: what}}
			}
		}
	}
	return nil
}

// recvTypeName returns the receiver type name of decl ("" for
// functions).
func recvTypeName(decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return ""
	}
	t := decl.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
