// Package walfirst defines the Analyzer that enforces the paper's §4.5
// write-ahead rule: no object mutation may execute before the
// corresponding write-ahead log record has been appended.
//
// In this engine the WAL boundary lives in the Txn methods (txn.go):
// each operation appends its log record via (*wal.Log).Append and only
// then runs its apply step, directly or through a helper.  The apply
// steps are the mutation events (ssa's mutator set): a structural
// update's lob Object.Apply, Object.Destroy, the in-place Object.Replace,
// and a transactional replace's ReplacePlan.Hold.  What runs before the
// record is a prepare step — PrepareAppend, PrepareInsert, PrepareDelete,
// PrepareReplace — which writes only pages no root names (§4.5: "the other
// three operations shadow"), and is no mutation.  The Object methods that
// run a whole update (Append, Insert, ...) reach Apply inside lob, and the
// facts carry that exposure to their callers.
//
// The analyzer computes, bottom-up over the ssa call graph (with
// cross-package propagation through WalFact object facts), two bits
// per function:
//
//   - Exposed: some path through the function reaches a mutation
//     (direct or through further callees) before the function itself
//     has appended a WAL record on that path.  Calling an exposed
//     function while the caller has not logged yet is a write-ahead
//     violation.
//
//   - AppendsAll: every path from entry to return appends a WAL
//     record, so after a call to the function the caller's logging
//     obligation is discharged (a helper that wraps the append).
//
// Exported transaction methods (receiver type named by -recv, default
// "Txn") are then checked with a forward all-paths dataflow: the logged
// state starts false, a WAL append (or a call to an AppendsAll
// function) sets it, joins take the conjunction, and a mutation — a
// direct lob.Object mutator call, or a call to an Exposed callee, named
// with the full call chain — in the unlogged state is reported.
// Unexported helpers inherit their caller's logging context: they are
// summarized, not reported, so a helper whose every caller logs first
// stays silent.
//
// Where the report names a WAL append that fails to cover the call,
// the ssa dominator tree supplies the evidence: the append exists but
// does not dominate the call site, i.e. some path from entry skips it.
//
// Interface calls use the CHA resolution: a call is Exposed if any
// candidate is, and AppendsAll only if every candidate is.  Calls that
// resolve to nothing (func values, closures) are treated as neither.
//
// Txn.Abort applies nothing: it reinstates the roots from before the
// transaction (lob Object.Reinstate, no mutation event), whose pages the
// transaction never wrote, and logs its record behind that.
package walfirst

import (
	"fmt"
	"go/ast"
	"strings"

	"golang.org/x/tools/go/analysis"

	"github.com/eosdb/eos/internal/analysis/ignore"
	"github.com/eosdb/eos/internal/analysis/ssa"
)

const doc = `check that transactional mutations are preceded by a WAL append (§4.5)

A transaction method that can reach an object mutation — directly or
through a helper — before appending the operation's log record breaks
recovery: a crash between the mutation and the append leaves a change
on disk that the log can neither redo nor undo.  Function summaries
(may-mutate-before-logging / always-appends) propagate bottom-up over
the call graph and across packages via analysis facts, so a helper
that logs counts as the append and a helper that mutates counts as
the mutation.`

// Analyzer is the walfirst analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "walfirst",
	Doc:       doc,
	Requires:  []*analysis.Analyzer{ssa.Analyzer, ignore.Analyzer},
	Run:       run,
	FactTypes: []analysis.Fact{new(WalFact)},
}

var recvFlag string

func init() {
	Analyzer.Flags.StringVar(&recvFlag, "recv", "Txn",
		"comma-separated receiver type names whose methods must log before mutating")
}

// WalFact is the exported per-function write-ahead summary.
type WalFact struct {
	// Exposed: some path reaches a mutation before this function has
	// appended a WAL record.
	Exposed bool
	// Witness is the call chain from this function to the exposed
	// mutation ("applyAppend → Object.Append").
	Witness []string
	// AppendsAll: every path to return appends a WAL record.
	AppendsAll bool
}

// AFact marks WalFact as an analysis fact.
func (*WalFact) AFact() {}

func (f *WalFact) String() string {
	switch {
	case f.Exposed && f.AppendsAll:
		return "wal(exposed,appends-all)"
	case f.Exposed:
		return "wal(exposed)"
	case f.AppendsAll:
		return "wal(appends-all)"
	}
	return "wal()"
}

// maxChain bounds recorded witness chains.
const maxChain = 8

func run(pass *analysis.Pass) (interface{}, error) {
	pr := pass.ResultOf[ssa.Analyzer].(*ssa.Program)
	ig := ignore.For(pass)

	c := &checker{pass: pass, pr: pr, ig: ig, summaries: make(map[*ssa.Func]*WalFact)}
	c.summarize()
	c.exportFacts()

	recvs := make(map[string]bool)
	for _, r := range strings.Split(recvFlag, ",") {
		if r = strings.TrimSpace(r); r != "" {
			recvs[r] = true
		}
	}
	for _, f := range pr.Funcs {
		// Roots are the exported methods of the transaction type: the
		// API surface where the logging obligation starts.
		if f.Decl.Recv == nil || !recvs[recvTypeName(f.Decl)] || !f.Obj.Exported() {
			continue
		}
		c.checkRoot(f)
	}
	return nil, nil
}

type checker struct {
	pass      *analysis.Pass
	pr        *ssa.Program
	ig        *ignore.Reporter
	summaries map[*ssa.Func]*WalFact
}

// summarize computes the per-function summaries bottom-up, iterating
// each SCC to a fixed point.  Exposed only ever turns on and
// AppendsAll only ever turns off (it starts optimistic), so the
// iteration converges.
func (c *checker) summarize() {
	for _, scc := range c.pr.SCCs {
		for _, f := range scc {
			c.summaries[f] = &WalFact{AppendsAll: true}
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

// updateSummary runs the logged-state dataflow over f and refreshes
// its summary bits, reporting whether anything changed.
func (c *checker) updateSummary(f *ssa.Func) bool {
	sum := c.summaries[f]
	exposed, witness, appendsAll := c.dataflow(f, nil)
	changed := false
	if exposed && !sum.Exposed {
		sum.Exposed = true
		sum.Witness = witness
		changed = true
	}
	if !appendsAll && sum.AppendsAll {
		sum.AppendsAll = false
		changed = true
	}
	return changed
}

// exportFacts publishes the converged summaries.
func (c *checker) exportFacts() {
	for f, sum := range c.summaries {
		if sum.Exposed || sum.AppendsAll {
			c.pass.ExportObjectFact(f.Obj, sum)
		}
	}
}

// calleeSummary merges the summaries of a call's CHA candidates:
// exposed if any candidate is exposed, appends-all only if every
// candidate appends.
func (c *checker) calleeSummary(in *ssa.Instr) (exposed bool, witness []string, appendsAll bool) {
	if len(in.Callees) == 0 {
		return false, nil, false
	}
	appendsAll = true
	for _, callee := range in.Callees {
		var cf *WalFact
		if f, ok := c.pr.ByObj[callee]; ok {
			cf = c.summaries[f]
		} else {
			var imported WalFact
			if c.pass.ImportObjectFact(callee, &imported) {
				cf = &imported
			}
		}
		if cf == nil {
			appendsAll = false
			continue
		}
		if cf.Exposed && !exposed {
			exposed = true
			witness = append([]string{ssa.FuncLabel(c.pass.Pkg, callee)}, cf.Witness...)
			if len(witness) > maxChain {
				witness = witness[:maxChain]
			}
		}
		if !cf.AppendsAll {
			appendsAll = false
		}
	}
	return exposed, witness, appendsAll
}

// exposure is one unlogged mutation found by the dataflow: a direct
// mutator call (witness nil) or a call to an exposed callee.
type exposure struct {
	in      *ssa.Instr
	block   *ssa.Block
	witness []string
}

// dataflow runs the all-paths logged-state analysis over f.  The
// lattice per block is "logged on every path reaching here"; it starts
// optimistic (true) and iterates to the greatest fixed point.  When
// report is non-nil, every unlogged mutation is appended to it (used
// for root methods); the returned values are the function's own
// summary bits.
func (c *checker) dataflow(f *ssa.Func, report *[]exposure) (exposed bool, witness []string, appendsAll bool) {
	if f.Entry == nil {
		return false, nil, true
	}
	n := len(f.Blocks)
	inState := make([]bool, n)
	outState := make([]bool, n)
	for i := range outState {
		inState[i] = true
		outState[i] = true
	}
	inState[f.Entry.Index] = false

	preds := make([][]*ssa.Block, n)
	for _, b := range f.Blocks {
		if !f.Reachable(b) {
			continue
		}
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], b)
		}
	}

	transfer := func(b *ssa.Block, logged bool) bool {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Kind {
			case ssa.KWALAppend:
				logged = true
			case ssa.KCall:
				if _, _, calleeAppends := c.calleeSummary(in); calleeAppends {
					logged = true
				}
			}
		}
		return logged
	}

	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if !f.Reachable(b) {
				continue
			}
			in := true
			if b == f.Entry {
				in = false
			} else {
				for _, p := range preds[b.Index] {
					in = in && outState[p.Index]
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

	// Final pass: collect exposures and the exit conjunction.
	appendsAll = true
	sawExit := false
	for _, b := range f.Blocks {
		if !f.Reachable(b) {
			continue
		}
		logged := inState[b.Index]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Kind {
			case ssa.KWALAppend:
				logged = true
			case ssa.KMutate:
				if logged {
					continue
				}
				if !exposed {
					exposed = true
					witness = []string{in.MutName}
				}
				if report != nil {
					*report = append(*report, exposure{in: in, block: b})
				}
			case ssa.KCall:
				calleeExposed, calleeWitness, calleeAppends := c.calleeSummary(in)
				if calleeExposed && !logged {
					if !exposed {
						exposed = true
						witness = calleeWitness
					}
					if report != nil {
						*report = append(*report, exposure{in: in, block: b, witness: calleeWitness})
					}
				}
				if calleeAppends {
					logged = true
				}
			}
		}
		if len(b.Succs) == 0 && b.Raw.Live {
			sawExit = true
			if !logged {
				appendsAll = false
			}
		}
	}
	if !sawExit {
		appendsAll = false
	}
	return exposed, witness, appendsAll
}

// checkRoot reports every unlogged mutation in a transaction method.
func (c *checker) checkRoot(f *ssa.Func) {
	var exposures []exposure
	c.dataflow(f, &exposures)
	for _, e := range exposures {
		var msg string
		if e.witness == nil {
			msg = fmt.Sprintf("mutation %s can execute before its WAL record is appended; log first (§4.5 write-ahead rule)",
				e.in.MutName)
		} else {
			msg = fmt.Sprintf(
				"call can mutate %s before this transaction's WAL record is appended (call chain %s → %s); log first (§4.5 write-ahead rule)",
				e.witness[len(e.witness)-1], ssa.FuncLabel(c.pass.Pkg, f.Obj), strings.Join(e.witness, " → "))
		}
		if app := c.skippedAppend(f, e.block); app != "" {
			msg += fmt.Sprintf("; the append at %s does not dominate this call", app)
		}
		c.ig.Report(e.in.Call.Pos(), "%s", msg)
	}
}

// skippedAppend finds a WAL append in f that fails to dominate block b
// — evidence that the append exists but a path from entry skips it.
func (c *checker) skippedAppend(f *ssa.Func, b *ssa.Block) string {
	for _, ab := range f.Blocks {
		if !f.Reachable(ab) {
			continue
		}
		for i := range ab.Instrs {
			in := &ab.Instrs[i]
			if in.Kind != ssa.KWALAppend {
				continue
			}
			if !f.Dominates(ab, b) {
				p := c.pass.Fset.Position(in.Call.Pos())
				return fmt.Sprintf("line %d", p.Line)
			}
		}
	}
	return ""
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
