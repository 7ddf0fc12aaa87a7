// Package guardedby defines an Analyzer that enforces `eos:guardedby`
// field annotations: every access to an annotated struct field must
// happen while the named mutex is held on the same receiver.
//
// # Annotation grammar
//
// A struct field is annotated in its doc or line comment:
//
//	type shard struct {
//		mu     sync.Mutex
//		frames map[disk.PageNum]*frame // eos:guardedby mu
//	}
//
// The guard names a sibling field of mutex type; naming a field that
// does not exist in the struct is itself reported, so annotations
// cannot rot silently.  A dotted guard such as
//
//	root *segdir // eos:guardedby catEntry.latch
//
// declares that the guard lives outside the struct (the catalog entry
// latch of the object's owner, the pool that embeds the shard, ...).
// External guards are inventory: they document the locking contract
// for readers and reviewers but are not flow-checked, because the
// guard is not reachable from the accessing expression.
//
// A function that is documented to run with a lock already held
// declares it, in terms of its own parameter or receiver names:
//
//	// eos:requires sh.mu
//	func (p *Pool) allocFrameLocked(sh *shard, ...) ...
//
// An optional "(shared)" suffix seeds a read lock instead of an
// exclusive one.
//
// # Checking
//
// For every function the analyzer runs a must-hold dataflow over the
// control-flow graph: the set of lock tokens (expression strings such
// as "sh.mu") certainly held at each point, starting from the
// eos:requires seed, adding at Lock/RLock, removing at
// Unlock/RUnlock, and intersecting at join points.  A deferred unlock
// removes nothing — it runs at function exit.  Each load of an
// annotated field must see its guard held (shared suffices); each
// store — assignment through the field, including writes to its
// elements, ++/--, or taking its address — must see it held
// exclusively.
//
// Fields of sync/atomic types are exempt from flow checking: their
// accesses are serialized by the hardware, and the annotation on them
// documents which mutex orders them with neighboring plain fields.
// Function literals are analyzed as functions with an empty seed;
// a literal that runs under a caller-held lock needs an
// //eoslint:ignore with its justification (the lock relationship is
// not expressible across the closure boundary).
//
// The dataflow itself (Lockset) is exported: the racecheck analyzer
// runs the same must-hold analysis under its own lock naming and
// write-target rule.
package guardedby

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"github.com/eosdb/eos/internal/analysis/ignore"
)

const doc = `check eos:guardedby field annotations with a must-hold lock analysis

An annotated field may only be loaded while its guard mutex is held
(read or write lock) and only be stored while it is held exclusively.
The held-lock set is tracked through the control-flow graph and
intersected at joins, so a lock released on any path to an access no
longer protects it.  See the package documentation for the annotation
grammar (eos:guardedby on fields, eos:requires on functions).`

// Analyzer is the guardedby analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "guardedby",
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer, ignore.Analyzer},
	Run:      run,
}

const (
	guardPrefix    = "eos:guardedby"
	requiresPrefix = "eos:requires"
)

// fieldInfo is one annotated field.
type fieldInfo struct {
	structName string
	fieldName  string
	mutex      string // sibling field name, or dotted external path
	external   bool   // dotted: documented, not flow-checked
	exempt     bool   // sync/atomic-typed field: hardware-ordered
}

// Mode is how strongly a lock is held.
type Mode int

const (
	Held     Mode = 1 // shared (RLock)
	HeldExcl Mode = 2 // exclusive (Lock)
)

// LockState maps held lock tokens ("sh.mu") to their mode.  A nil map
// is the dataflow top (point not yet reached).
type LockState map[string]Mode

func clone(s LockState) LockState {
	out := make(LockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// intersect narrows a to the locks also held in b (weakest mode wins).
func intersect(a, b LockState) LockState {
	out := make(LockState)
	for k, v := range a {
		if w, ok := b[k]; ok {
			if w < v {
				v = w
			}
			out[k] = v
		}
	}
	return out
}

func equal(a, b LockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

type checker struct {
	pass   *analysis.Pass
	ig     *ignore.Reporter
	fields map[*types.Var]*fieldInfo
	// requires maps each method of the package that declares eos:requires
	// on its receiver's locks to them, keyed by the path below the
	// receiver ("mu" for "s.mu").
	requires map[*types.Func]LockState
}

func run(pass *analysis.Pass) (interface{}, error) {
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	c := &checker{
		pass:     pass,
		ig:       ignore.For(pass),
		fields:   make(map[*types.Var]*fieldInfo),
		requires: make(map[*types.Func]LockState),
	}

	c.collectAnnotations(insp)
	c.collectRequires(insp)
	if len(c.fields) == 0 && len(c.requires) == 0 {
		return nil, nil
	}

	ls := &Lockset{
		Info:   pass.TypesInfo,
		Canon:  types.ExprString,
		Target: func(e ast.Expr) ast.Expr { return e },
	}
	nodeFilter := []ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}
	insp.Preorder(nodeFilter, func(n ast.Node) {
		if strings.HasSuffix(pass.Fset.Position(n.Pos()).Filename, "_test.go") {
			return
		}
		var g *cfg.CFG
		var seed LockState
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body == nil {
				return
			}
			g = cfgs.FuncDecl(fn)
			seed = ParseRequires(fn.Doc)
		case *ast.FuncLit:
			g = cfgs.FuncLit(fn)
			seed = LockState{}
		}
		if g != nil {
			ls.Run(g, seed, c.checkAccess)
		}
	})
	return nil, nil
}

// collectAnnotations reads every eos:guardedby comment off struct
// fields and validates sibling guards.
func (c *checker) collectAnnotations(insp *inspector.Inspector) {
	insp.Preorder([]ast.Node{(*ast.TypeSpec)(nil)}, func(n ast.Node) {
		spec := n.(*ast.TypeSpec)
		st, ok := spec.Type.(*ast.StructType)
		if !ok || st.Fields == nil {
			return
		}
		siblings := make(map[string]bool)
		for _, f := range st.Fields.List {
			for _, nm := range f.Names {
				siblings[nm.Name] = true
			}
		}
		for _, f := range st.Fields.List {
			guard, pos, ok := guardOf(f)
			if !ok {
				continue
			}
			external := strings.Contains(guard, ".")
			if !external && !siblings[guard] {
				c.pass.Reportf(pos, "eos:guardedby names %q, which is not a field of %s",
					guard, spec.Name.Name)
				continue
			}
			for _, nm := range f.Names {
				obj, ok := c.pass.TypesInfo.Defs[nm].(*types.Var)
				if !ok {
					continue
				}
				c.fields[obj] = &fieldInfo{
					structName: spec.Name.Name,
					fieldName:  nm.Name,
					mutex:      guard,
					external:   external,
					exempt:     IsAtomicType(obj.Type()),
				}
			}
		}
	})
}

// collectRequires records the receiver locks every method declares with
// eos:requires: a call of the method must hold them.
func (c *checker) collectRequires(insp *inspector.Inspector) {
	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
			return
		}
		obj, ok := c.pass.TypesInfo.Defs[fn.Name].(*types.Func)
		if !ok {
			return
		}
		recv := fn.Recv.List[0].Names[0].Name + "."
		locks := LockState{}
		for tok, m := range ParseRequires(fn.Doc) {
			if strings.HasPrefix(tok, recv) {
				locks[strings.TrimPrefix(tok, recv)] = m
			}
		}
		if len(locks) > 0 {
			c.requires[obj] = locks
		}
	})
}

// Annotated reports whether a struct field carries an eos:guardedby
// annotation.
func Annotated(f *ast.Field) bool {
	_, _, ok := guardOf(f)
	return ok
}

// guardOf extracts the eos:guardedby target from a field's doc or
// line comment.
func guardOf(f *ast.Field) (string, token.Pos, bool) {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, cm := range cg.List {
			if fields := directive(cm.Text, guardPrefix); len(fields) > 0 {
				return fields[0], cm.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

// directive returns the words after prefix when the comment text is
// that directive, or nil.
func directive(text, prefix string) []string {
	text = strings.TrimSpace(strings.TrimPrefix(text, "//"))
	if !strings.HasPrefix(text, prefix) {
		return nil
	}
	rest := strings.TrimPrefix(text, prefix)
	if rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
		return nil
	}
	return strings.Fields(rest)
}

// ParseRequires builds the entry lock set from the eos:requires lines
// in a function's doc comment, keyed by the tokens as written ("sh.mu").
func ParseRequires(doc *ast.CommentGroup) LockState {
	seed := LockState{}
	if doc == nil {
		return seed
	}
	for _, cm := range doc.List {
		fields := directive(cm.Text, requiresPrefix)
		if len(fields) == 0 {
			continue
		}
		m := HeldExcl
		if len(fields) > 1 && strings.HasPrefix(fields[1], "(shared") {
			m = Held
		}
		seed[fields[0]] = m
	}
	return seed
}

// IsAtomicType reports whether t (unwrapping pointers) is declared in
// sync/atomic.
func IsAtomicType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic"
}

// IsMutexType reports whether t (unwrapping pointers) is sync.Mutex or
// sync.RWMutex.
func IsMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// checkAccess reports sel if it touches an annotated field, or names a
// method that declares eos:requires, without the required lock strength.
func (c *checker) checkAccess(sel *ast.SelectorExpr, st LockState, write bool) {
	if fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
		for path, m := range c.requires[fn] {
			if tok := types.ExprString(sel.X) + "." + path; st[tok] < m {
				c.ig.Report(sel.Pos(), "call of %s without holding %s (eos:requires)", fn.Name(), tok)
			}
		}
		return
	}
	fieldObj, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok {
		return
	}
	info, ok := c.fields[fieldObj]
	if !ok || info.external || info.exempt {
		return
	}
	tok := types.ExprString(sel.X) + "." + info.mutex
	got := st[tok]
	switch {
	case write && got < HeldExcl:
		if got == Held {
			c.ig.Report(sel.Pos(),
				"write to %s.%s with only a read lock on %s (eos:guardedby %s)",
				info.structName, info.fieldName, tok, info.mutex)
		} else {
			c.ig.Report(sel.Pos(),
				"write to %s.%s without holding %s (eos:guardedby %s)",
				info.structName, info.fieldName, tok, info.mutex)
		}
	case !write && got < Held:
		c.ig.Report(sel.Pos(),
			"read of %s.%s without holding %s (eos:guardedby %s)",
			info.structName, info.fieldName, tok, info.mutex)
	}
}

// Lockset is the must-hold lock dataflow: the set of lock tokens
// certainly held at each point of a function, starting from a seed,
// adding at Lock/RLock on a sync mutex, removing at Unlock/RUnlock, and
// intersecting at join points.  A deferred unlock removes nothing — it
// runs at function exit.  Function literals are not entered; each is a
// function of its own.
type Lockset struct {
	Info *types.Info
	// Canon names the mutex expression of a lock call: the token the
	// state records.
	Canon func(mutex ast.Expr) string
	// Target maps a store-context expression — an assignment target, a
	// ++/-- operand, an &-taken operand — to the expression it writes,
	// or nil when it writes none.
	Target func(ast.Expr) ast.Expr
}

// Run solves the dataflow over g from seed, then calls visit for every
// selector expression of each reached block, in source order, with the
// locks held at that point and whether the selector lies inside a
// written expression.
func (l *Lockset) Run(g *cfg.CFG, seed LockState, visit func(sel *ast.SelectorExpr, st LockState, write bool)) {
	blocks := g.Blocks
	if len(blocks) == 0 {
		return
	}
	n := len(blocks)
	idx := make(map[*cfg.Block]int, n)
	for i, b := range blocks {
		idx[b] = i
	}
	preds := make([][]int, n)
	for i, b := range blocks {
		for _, s := range b.Succs {
			j := idx[s]
			preds[j] = append(preds[j], i)
		}
	}
	in := make([]LockState, n)
	out := make([]LockState, n)

	work := []int{0}
	in[0] = clone(seed)
	for len(work) > 0 {
		i := work[0]
		work = work[1:]
		if in[i] == nil {
			continue
		}
		st := clone(in[i])
		for _, node := range blocks[i].Nodes {
			l.scan(node, st, nil)
		}
		if equal(st, out[i]) && out[i] != nil {
			continue
		}
		out[i] = st
		for _, s := range blocks[i].Succs {
			j := idx[s]
			var merged LockState
			for _, p := range preds[j] {
				if out[p] == nil {
					continue
				}
				if merged == nil {
					merged = clone(out[p])
				} else {
					merged = intersect(merged, out[p])
				}
			}
			if merged != nil && (in[j] == nil || !equal(merged, in[j])) {
				in[j] = merged
				work = append(work, j)
			}
		}
	}

	// Visit pass: replay each reached block with its final entry state.
	for i, b := range blocks {
		if !b.Live || in[i] == nil {
			continue
		}
		st := clone(in[i])
		for _, node := range b.Nodes {
			l.scan(node, st, visit)
		}
	}
}

// scan applies node's lock events to st in source order and, when
// visit is set, hands it every selector with the state at that point.
func (l *Lockset) scan(node ast.Node, st LockState, visit func(*ast.SelectorExpr, LockState, bool)) {
	var writes []ast.Node
	if visit != nil {
		writes = l.writeRoots(node)
	}
	ast.Inspect(node, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // analyzed as its own function
		case *ast.DeferStmt:
			return false // deferred unlocks run at exit; locks in defers are not ours
		case *ast.CallExpr:
			l.applyLockCall(m, st)
		case *ast.SelectorExpr:
			if visit != nil {
				visit(m, st, within(m, writes))
			}
		}
		return true
	})
}

// applyLockCall updates st for a Lock/RLock/Unlock/RUnlock call on a
// sync mutex.
func (l *Lockset) applyLockCall(call *ast.CallExpr, st LockState) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	var m Mode // zero: a release
	switch sel.Sel.Name {
	case "Lock":
		m = HeldExcl
	case "RLock":
		m = Held
	case "Unlock", "RUnlock":
	default:
		return
	}
	tv, ok := l.Info.Types[sel.X]
	if !ok || !IsMutexType(tv.Type) {
		return
	}
	tok := l.Canon(sel.X)
	if m == 0 {
		delete(st, tok)
	} else {
		st[tok] = m
	}
}

// writeRoots collects the expressions node writes, per Target: an
// annotated selector inside any of them is a write.
func (l *Lockset) writeRoots(node ast.Node) []ast.Node {
	var roots []ast.Node
	add := func(e ast.Expr) {
		if t := l.Target(e); t != nil {
			roots = append(roots, t)
		}
	}
	ast.Inspect(node, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				add(lhs)
			}
		case *ast.IncDecStmt:
			add(m.X)
		case *ast.UnaryExpr:
			if m.Op == token.AND {
				add(m.X)
			}
		}
		return true
	})
	return roots
}

// within reports whether sel lies inside any of the roots.
func within(sel ast.Node, roots []ast.Node) bool {
	for _, r := range roots {
		if sel.Pos() >= r.Pos() && sel.End() <= r.End() {
			return true
		}
	}
	return false
}
