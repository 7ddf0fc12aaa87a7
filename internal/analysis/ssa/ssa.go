// Package ssa builds the shared whole-program analysis facility of the
// eoslint passes: a pruned SSA-style intermediate representation of
// every function in the package — basic blocks lifted from the
// toolchain-vendored go/cfg, a dominator tree per function, and a
// classified instruction stream (ranked-latch acquire/release, WAL
// appends and forces, device forces and directory syncs, large-object
// mutations, checkpoint meta writes, quarantine stamps, resolved call
// sites) — plus a call graph that resolves static calls directly and
// dynamic calls through class-hierarchy analysis (CHA) over the package
// and its imports, a strongly-connected-component condensation in
// bottom-up (callees first) order, and the one summary solver over it
// (Program.Solve, Summary).
//
// golang.org/x/tools/go/ssa is not part of the toolchain-vendored
// subset of x/tools this repository builds against (vendoring pulls
// only what go vet itself vendors), so this package implements the
// slice of it the whole-program passes need natively: it does not
// insert φ-nodes or rename every local, but it gives each pass the
// same dominance, ordering, and call-resolution queries the go/ssa +
// go/callgraph pair would.  The interprocedural passes (pairs,
// lockorder, forcedom) each define their own per-function summary —
// propagated across packages through go/analysis object facts — and
// compute it with the shared solver (summary.go).
//
// Function literals are deliberately not modeled as separate functions:
// a closure may run on another goroutine (where the enclosing lock and
// logging context does not apply), so instruction extraction skips
// them.  Calls inside a deferred statement (including inside an
// immediately-deferred literal) are marked Deferred: they run at
// function exit.
package ssa

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"github.com/eosdb/eos/internal/analysis/eosutil"
)

// Analyzer builds the *Program IR for a package.  It is a prerequisite
// (Requires) of the whole-program passes, not a checker: it reports
// nothing itself.
var Analyzer = &analysis.Analyzer{
	Name:       "eosssa",
	Doc:        "build the pruned-SSA IR and call graph shared by the whole-program passes (internal prerequisite)\n\nNot a checker: it feeds basic blocks, dominators, and the CHA call graph to pairs, lockorder, forcedom, and racecheck.",
	Requires:   []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:        run,
	ResultType: reflect.TypeOf((*Program)(nil)),
}

// LockRanks returns the engine's canonical latch lattice, keyed by
// "Type.field" of the mutex field and valued by rank.  The pairs
// analyzer takes its ranked-mutex set from the same table, so the
// pairing and ordering checks cannot drift.  Matching is by type and
// field name (not import path) so analyzertest fixtures can declare
// stand-in types.
func LockRanks() map[string]int {
	return map[string]int{
		"Store.ckptMu":     5, // one checkpoint at a time; it takes Store.mu twice inside
		"Store.mu":         10,
		"LockTable.mu":     15,
		"catEntry.latch":   20,
		"Pending.mu":       28, // the write-behind set: pending pages and their writes
		"deferredAlloc.mu": 30,
		"Store.quarMu":     30, // durability quarantine; a leaf, never nested with deferredAlloc.mu
		"EpochManager.mu":  33, // epoch bookkeeping; freeFn never runs under it
		"Manager.mu":       35, // buddy superdirectory latch
		"Pool.mu":          40, // buffer pool: frame map, LRU list, write-back
		"Log.forceMu":      45, // group-commit leader force; before Log.mu
		"Log.mu":           50,
		"Volume.mu":        60,
		"FileVolume.mu":    62, // crash-shadow map of the file backend
		"account.mu":       70, // both volumes' accounting core; never held across a transfer
	}
}

// mutators lists the lob.Object methods that change a tree a root names —
// the apply steps, and so the mutation events, of forcedom's §4.5
// write-ahead rule: a structural update's Apply (its prepare writes only pages no root
// names, and runs before the record), Destroy, and the in-place Replace.
// The Object methods that run a whole update (Append, Insert, ...) reach
// Apply inside lob and are exposed through their facts.  A transactional
// replace's apply step is ReplacePlan.Hold.
var mutators = []string{"Apply", "Destroy", "Replace"}

// Program is the package-level IR: one Func per function declaration
// with a body, plus the call graph over them.
type Program struct {
	Pass  *analysis.Pass
	Funcs []*Func
	// ByObj maps the defining *types.Func to its IR.
	ByObj map[*types.Func]*Func
	// SCCs is the call-graph condensation in bottom-up order: every
	// function a component calls (within the package) is in the same or
	// an earlier component, so interprocedural summaries computed in
	// SCC order see their intra-package callees' summaries first.
	SCCs [][]*Func

	ranks map[string]int
	cha   *chaResolver
}

// Func is the IR of one function declaration.
type Func struct {
	Obj    *types.Func
	Decl   *ast.FuncDecl
	Blocks []*Block // parallel to the go/cfg block list
	Entry  *Block

	domOrder []*Block // reachable blocks in reverse postorder
}

// Block is one basic block: the go/cfg block it mirrors plus the
// classified instruction stream and dominator-tree position.
type Block struct {
	Index  int32
	Raw    *cfg.Block
	Instrs []Instr
	Succs  []*Block
	Idom   *Block // immediate dominator; nil for entry and unreachable blocks

	domPre, domPost int32 // dominator-tree DFS interval for Dominates
	rpo             int32 // reverse-postorder index; -1 if unreachable
}

// Kind classifies one instruction.
type Kind uint8

const (
	// KCall is a function or method call that is none of the more
	// specific kinds below.  Callees holds the resolution (empty when
	// the callee is dynamic and CHA found no candidate).
	KCall Kind = iota
	// KLock acquires a ranked engine latch (Lock or RLock on a field in
	// the LockRanks lattice).
	KLock
	// KUnlock releases a ranked engine latch.
	KUnlock
	// KWALAppend appends a write-ahead log record ((*wal.Log).Append).
	KWALAppend
	// KMutate calls a lob apply step (see mutators, and
	// ReplacePlan.Hold) — the event of forcedom's §4.5 write-ahead rule,
	// which a KWALAppend must dominate.
	KMutate

	// Durability events.  With KWALAppend and KMutate these are the
	// vocabulary of the forcedom crash-consistency pass: each marks a
	// point where state ordering against stable storage is established
	// or consumed.

	// KWALForce forces the write-ahead log ((*wal.Log).Force or
	// ForceLSN): every record at or below the target LSN is durable
	// afterwards.
	KWALForce
	// KDevForce forces volume pages (Force/ForceAll/ForceAllExcept on a
	// disk Device, Volume, or FileVolume): the §8.1 data-before-metadata
	// checkpoint barrier.
	KDevForce
	// KSyncDir fsyncs a directory (disk.SyncDir), making renamed or
	// created entries durable.
	KSyncDir
	// KRename renames a file (os.Rename) — volatile until the owning
	// directory is synced.
	KRename
	// KMetaWrite appends the catalog image to the log or writes the master
	// record ((*Store).appendImage / writeMaster): the metadata half of the
	// two-phase checkpoint barrier.
	KMetaWrite
	// KBuddyFree returns an extent to the buddy allocator
	// ((*buddy.Manager).Free called from outside the allocator itself) —
	// the reallocation event the durability quarantine gates.
	KBuddyFree
	// KBarrierStamp reads or publishes the quarantine barrier stamp
	// (Load/Store on a field named barrierDurable).
	KBarrierStamp
	// KHomeWrite hands a committed transaction's held replaced pages to the
	// write-behind set, which writes them home later
	// ((*lob.Manager).PendHeld): the deferred form of Object.Replace's
	// overwrite, and like it subject to forcedom's §8.1 force-ahead rule.
	// Not a KMutate: the records were appended when the replaces were
	// prepared, in earlier calls, so the write-ahead rule cannot be
	// checked at the write.
	KHomeWrite
)

// Instr is one classified instruction, in source order within its
// block.
type Instr struct {
	Kind Kind
	Call *ast.CallExpr
	// Deferred marks calls that run at function exit (defer f(),
	// or any call inside an immediately-deferred function literal).
	Deferred bool

	// Callees is the call-graph resolution: exactly one function for a
	// static call, every CHA candidate for an interface call, empty for
	// an unresolvable dynamic call.  Filled for every instruction kind
	// (a mutator call is also an edge to the mutator's body).
	Callees []*types.Func

	// KLock/KUnlock: the lattice key ("Pool.mu" owner type + field),
	// its rank, whether the acquisition is shared (RLock/RUnlock), and
	// the receiver expression text ("p.mu") identifying the instance.
	LockKey   string
	LockRank  int
	Shared    bool
	LockToken string

	// KWALAppend: the record is a commit record, written as a composite
	// literal whose Type is RecCommit — the event of forcedom's
	// data-before-commit rule.
	Commit bool

	// KMutate: the "Object.Method" label for diagnostics.  Also set for
	// KMetaWrite ("Store.writeMaster"), KDevForce ("Volume.ForceAll") and
	// KHomeWrite ("Manager.PendHeld") so the forcedom pass can name the
	// event without re-resolving.
	MutName string
}

// Pos returns the source position anchoring the instruction: its call
// expression.
func (in *Instr) Pos() token.Pos { return in.Call.Pos() }

func run(pass *analysis.Pass) (interface{}, error) {
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	pr := &Program{
		Pass:  pass,
		ByObj: make(map[*types.Func]*Func),
		ranks: LockRanks(),
		cha:   newCHAResolver(pass),
	}

	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil {
			return
		}
		obj, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
		if !ok {
			return
		}
		g := cfgs.FuncDecl(decl)
		if g == nil {
			return
		}
		f := pr.buildFunc(obj, decl, g)
		pr.Funcs = append(pr.Funcs, f)
		pr.ByObj[obj] = f
	})

	pr.SCCs = pr.condense()
	return pr, nil
}

// buildFunc lifts one function: blocks, instructions, dominators.
func (pr *Program) buildFunc(obj *types.Func, decl *ast.FuncDecl, g *cfg.CFG) *Func {
	f := &Func{Obj: obj, Decl: decl}
	f.Blocks = make([]*Block, len(g.Blocks))
	for i, rb := range g.Blocks {
		f.Blocks[i] = &Block{Index: int32(i), Raw: rb, rpo: -1}
	}
	for i, rb := range g.Blocks {
		b := f.Blocks[i]
		for _, s := range rb.Succs {
			b.Succs = append(b.Succs, f.Blocks[s.Index])
		}
		for _, n := range rb.Nodes {
			pr.scanNode(n, false, &b.Instrs)
		}
	}
	if len(f.Blocks) > 0 {
		f.Entry = f.Blocks[0]
		f.computeDominators()
	}
	return f
}

// scanNode extracts instructions from one CFG node in source order.
// Function literals are skipped (they run later, possibly elsewhere)
// except an immediately-deferred literal, whose body runs at exit and
// is scanned with deferred set.
func (pr *Program) scanNode(n ast.Node, deferred bool, out *[]Instr) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			// Arguments of the deferred call evaluate now; the call
			// itself (or the literal body) runs at exit.
			for _, arg := range m.Call.Args {
				pr.scanNode(arg, deferred, out)
			}
			if lit, ok := m.Call.Fun.(*ast.FuncLit); ok {
				pr.scanNode(lit.Body, true, out)
			} else {
				pr.classify(m.Call, true, out)
			}
			return false
		case *ast.CallExpr:
			// Arguments are scanned by the enclosing Inspect walk; only
			// classify the call itself here.
			pr.classify(m, deferred, out)
		}
		return true
	})
}

// classify appends the instruction for one call expression.
func (pr *Program) classify(call *ast.CallExpr, deferred bool, out *[]Instr) {
	in := Instr{Kind: KCall, Call: call, Deferred: deferred}
	in.Callees = pr.cha.resolve(call)

	if key, method, token, ok := pr.lockEvent(call); ok {
		in.LockKey, in.LockRank, in.LockToken = key, pr.ranks[key], token
		switch method {
		case "Lock", "RLock":
			in.Kind = KLock
		default:
			in.Kind = KUnlock
		}
		in.Shared = method == "RLock" || method == "RUnlock"
		*out = append(*out, in)
		return
	}
	info := pr.Pass.TypesInfo
	if _, ok := eosutil.IsMethodCall(info, call, "wal", "Log", "Append"); ok {
		in.Kind = KWALAppend
		if in.Commit = len(call.Args) == 1 && isCommitRecord(call.Args[0]); in.Commit {
			in.MutName = "Log.Append"
		}
		*out = append(*out, in)
		return
	}
	if m, ok := eosutil.IsMethodCallAny(info, call, "lob", "Object", mutators...); ok {
		in.Kind = KMutate
		in.MutName = "Object." + m
		*out = append(*out, in)
		return
	}
	if _, ok := eosutil.IsMethodCall(info, call, "lob", "ReplacePlan", "Hold"); ok {
		in.Kind = KMutate
		in.MutName = "ReplacePlan.Hold"
		*out = append(*out, in)
		return
	}
	if kind, label, ok := pr.durabilityEvent(call); ok {
		in.Kind = kind
		in.MutName = label
		*out = append(*out, in)
		return
	}
	*out = append(*out, in)
}

// devForceTypes are the disk types whose Force methods establish the
// data-durability half of the checkpoint barrier: the Device interface
// and both of its backends.
var devForceTypes = []string{"Device", "Volume", "FileVolume"}

// durabilityEvent classifies the forcedom event vocabulary: log and
// device forces, directory syncs, renames, image and master writes,
// quarantine-gated extent frees, and deferred in-place home writes.
// Matching follows the eosutil convention (package name + type name) so
// fixture stand-ins work.
func (pr *Program) durabilityEvent(call *ast.CallExpr) (Kind, string, bool) {
	info := pr.Pass.TypesInfo
	if m, ok := eosutil.IsMethodCall(info, call, "wal", "Log", "Force", "ForceLSN"); ok {
		return KWALForce, "Log." + m, true
	}
	for _, tn := range devForceTypes {
		if m, ok := eosutil.IsMethodCallAny(info, call, "disk", tn, "Force", "ForceAll", "ForceAllExcept"); ok {
			return KDevForce, tn + "." + m, true
		}
	}
	if isPkgNameFunc(info, call, "disk", "SyncDir") {
		return KSyncDir, "disk.SyncDir", true
	}
	if eosutil.IsPkgFunc(info, call, "os", "Rename") {
		return KRename, "os.Rename", true
	}
	if m, ok := eosutil.IsMethodCall(info, call, pr.Pass.Pkg.Name(), "Store", "appendImage", "writeMaster"); ok {
		return KMetaWrite, "Store." + m, true
	}
	// Extent reallocation: only calls from outside the allocator itself
	// are quarantine-gated events (the buddy package's own bookkeeping
	// is below the §8.1 contract).
	if pr.Pass.Pkg.Name() != "buddy" {
		if _, ok := eosutil.IsMethodCall(info, call, "buddy", "Manager", "Free"); ok {
			return KBuddyFree, "Manager.Free", true
		}
	}
	if ok := isBarrierStamp(call); ok {
		return KBarrierStamp, "barrierDurable", true
	}
	if m, ok := eosutil.IsMethodCall(info, call, "lob", "Manager", "PendHeld"); ok {
		return KHomeWrite, "Manager." + m, true
	}
	return 0, "", false
}

// isCommitRecord reports whether e is a record composite literal (or its
// address) whose Type field is RecCommit.
func isCommitRecord(e ast.Expr) bool {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Type" {
			if sel, ok := kv.Value.(*ast.SelectorExpr); ok && sel.Sel.Name == "RecCommit" {
				return true
			}
		}
	}
	return false
}

// isBarrierStamp matches Load/Store on a field named barrierDurable —
// the atomic stamp the durability quarantine publishes after phase two
// of a checkpoint and consults before reusing freed extents.
func isBarrierStamp(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "Load" && sel.Sel.Name != "Store" {
		return false
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	return ok && field.Sel.Name == "barrierDurable"
}

// isPkgNameFunc matches a package-level function by package *name*
// (unlike eosutil.IsPkgFunc, which wants the full import path) so
// fixture stand-ins for engine packages match too.
func isPkgNameFunc(info *types.Info, call *ast.CallExpr, pkgName, name string) bool {
	fn := eosutil.Callee(info, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Name() == pkgName
}

// lockEvent classifies call as Lock/RLock/Unlock/RUnlock on a ranked
// mutex field (owner.field.Lock()), returning the lattice key, the
// method, and the receiver expression text.
func (pr *Program) lockEvent(call *ast.CallExpr) (key, method, token string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	method = sel.Sel.Name
	switch method {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", "", false
	}
	fieldSel, isSel := sel.X.(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	selection, found := pr.Pass.TypesInfo.Selections[fieldSel]
	if !found {
		return "", "", "", false
	}
	field, isVar := selection.Obj().(*types.Var)
	if !isVar || !field.IsField() {
		return "", "", "", false
	}
	owner := eosutil.OwnerTypeName(selection.Recv())
	if owner == "" {
		return "", "", "", false
	}
	key = owner + "." + field.Name()
	if _, ranked := pr.ranks[key]; !ranked {
		return "", "", "", false
	}
	return key, method, types.ExprString(fieldSel), true
}

// FuncLabel renders fn for call-chain diagnostics: "(*Txn).Append" for
// methods, "pkg.Restore" for package functions in other packages, a
// bare name within the same package.
func FuncLabel(from *types.Package, fn *types.Func) string {
	var b strings.Builder
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			b.WriteString("(*")
			b.WriteString(eosutil.OwnerTypeName(p.Elem()))
			b.WriteString(")")
		} else {
			b.WriteString(eosutil.OwnerTypeName(t))
		}
		b.WriteString(".")
		b.WriteString(fn.Name())
		return b.String()
	}
	if fn.Pkg() != nil && fn.Pkg() != from {
		b.WriteString(fn.Pkg().Name())
		b.WriteString(".")
	}
	b.WriteString(fn.Name())
	return b.String()
}

// RankName labels the lattice levels for diagnostics.
func RankName(r int) string {
	switch {
	case r < 15:
		return "manager"
	case r < 20:
		return "lock-table"
	case r < 30:
		return "object"
	case r < 40:
		return "txn"
	case r < 50:
		return "pool"
	case r < 60:
		return "wal"
	default:
		return "disk"
	}
}
