// Package racecheck defines an Eraser-style static lockset analysis:
// a field of a mutex-bearing struct that is accessed by multiple
// functions on a goroutine-reachable path must have at least one lock
// held in common across all of its accesses.
//
// The dynamic race detector only sees interleavings the test schedule
// happens to produce; the lockset discipline is checkable statically.
// For every struct that carries a sync.Mutex/RWMutex field, every
// other field is a candidate shared variable unless it is itself a
// synchronization primitive (sync.* or sync/atomic types, channels)
// or carries an eos:guardedby annotation — annotated fields belong to
// the guardedby analyzer, which enforces the declared guard exactly.
//
// For each candidate the analyzer collects every access in the
// package together with the set of locks certainly held at it, using
// guardedby's must-hold dataflow (eos:requires doc comments seed the
// entry state; joins intersect; deferred unlocks release nothing).
// Lock tokens are canonicalized to "Type.field" — the vocabulary of
// the ssa LockRanks lattice — so locksets taken through different
// receiver expressions ("sh.mu", "p.shards[i].mu") intersect by
// identity of the lock field, and so the summary can cross package
// boundaries as a RaceFact.
//
// Accesses through a freshly allocated value (a local defined from a
// composite literal or new() in the same function) are thread-local
// until escape — the constructor pattern — and are exempt, which is
// what makes init-only fields (written once before the value is
// shared, immutable after) race-free without annotation.
//
// The same happens-before reasoning extends across calls as the
// shared-phase filter: an exported function whose results include a
// candidate-owning struct type is a constructor (Open, CreateAt), and
// the functions reachable only from constructors — the recovery path,
// format helpers — run before the value is published to any other
// goroutine.  Only accesses in functions reachable from an exported
// non-constructor entry point or from a goroutine spawn participate
// in the lockset intersection.
//
// A struct whose API contract serializes its use — a transaction
// handle driven by one goroutine at a time — declares it in its type
// doc comment with a line starting "eos:confined"; its fields are not
// lockset candidates.  The annotation is a documented contract, not
// an inference: it is the static analog of Eraser's thread-local
// state.
//
// A field is reported only when the evidence is complete: at least
// two distinct functions access it, at least one access is a write,
// at least one access is reachable from a concurrency root — a go
// statement in the package (the buffer pool's shard flushers, the
// checkpoint barrier goroutine), traversed through the ssa CHA call graph — and
// the intersection of all access locksets is empty.  The diagnostic
// carries a related position naming a second, lockset-disjoint access
// (surfaced as SARIF relatedLocations).
package racecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"github.com/eosdb/eos/internal/analysis/guardedby"
	"github.com/eosdb/eos/internal/analysis/ignore"
	"github.com/eosdb/eos/internal/analysis/ssa"
)

const doc = `check shared fields for an empty lockset across their accesses (Eraser rule)

A field of a mutex-bearing struct that multiple functions access on a
goroutine-reachable path with no lock held in common is a data race
the scheduler merely has not exhibited yet.  Held-lock sets are
computed by guardedby's must-hold dataflow, canonicalized to the
Type.field lock vocabulary, intersected across all accesses, and
propagated across packages as facts; constructor-fresh values, the
pre-publication constructor cone, eos:confined types, and
atomic/annotated fields are exempt.`

// Analyzer is the racecheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "racecheck",
	Doc:       doc,
	Requires:  []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer, ssa.Analyzer, ignore.Analyzer},
	Run:       run,
	FactTypes: []analysis.Fact{new(RaceFact)},
}

// RaceFact is the exported per-field access summary, merged into
// dependent packages' evidence.
type RaceFact struct {
	Reads, Writes int
	// Units counts distinct accessing functions.
	Units int
	// Concurrent: some access is reachable from a goroutine spawn.
	Concurrent bool
	// Lockset is the intersection of held locks over every access
	// ("Type.field" canonical names), sorted.
	Lockset []string
}

// AFact marks RaceFact as an analysis fact.
func (*RaceFact) AFact() {}

func (f *RaceFact) String() string {
	return "race(r" + itoa(f.Reads) + ",w" + itoa(f.Writes) + ",{" + strings.Join(f.Lockset, ",") + "})"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// access is one non-fresh touch of a candidate field.
type access struct {
	pos        token.Pos
	write      bool
	unit       int // index into checker.units
	locks      map[string]bool
	concurrent bool
}

// unit is one analyzed body: a function declaration or a function
// literal (literals run with an empty seed; a go-spawned literal is a
// concurrency root itself).
type unit struct {
	decl    *ast.FuncDecl // nil for literals
	lit     *ast.FuncLit
	obj     *types.Func
	parent  *types.Func // for literals: the enclosing declaration
	spawned bool
}

type candidate struct {
	structName string
	fieldName  string
}

type checker struct {
	pass       *analysis.Pass
	ig         *ignore.Reporter
	pr         *ssa.Program
	ls         *guardedby.Lockset
	fields     map[*types.Var]*candidate
	owners     map[string]bool // struct type names that have candidates
	units      []*unit
	accesses   map[*types.Var][]access
	reachable  map[*types.Func]bool
	shared     map[*types.Func]bool // post-publication phase
	spawnedLit map[*ast.FuncLit]bool
}

func run(pass *analysis.Pass) (interface{}, error) {
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	c := &checker{
		pass: pass,
		ig:   ignore.For(pass),
		pr:   pass.ResultOf[ssa.Analyzer].(*ssa.Program),
		ls: &guardedby.Lockset{
			Info:   pass.TypesInfo,
			Canon:  func(mutex ast.Expr) string { return canonicalLock(pass.TypesInfo, mutex) },
			Target: writeTarget,
		},
		fields:     make(map[*types.Var]*candidate),
		owners:     make(map[string]bool),
		accesses:   make(map[*types.Var][]access),
		reachable:  make(map[*types.Func]bool),
		shared:     make(map[*types.Func]bool),
		spawnedLit: make(map[*ast.FuncLit]bool),
	}

	c.collectCandidates(insp)
	c.collectRoots(insp)
	c.collectShared(insp)

	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil ||
			strings.HasSuffix(pass.Fset.Position(decl.Pos()).Filename, "_test.go") {
			return
		}
		obj, _ := pass.TypesInfo.Defs[decl.Name].(*types.Func)
		u := &unit{decl: decl, obj: obj}
		c.units = append(c.units, u)
		c.analyzeUnit(u, len(c.units)-1, cfgs.FuncDecl(decl), c.seed(decl))
		// Literals nested in the body are their own units.
		ast.Inspect(decl.Body, func(m ast.Node) bool {
			if lit, ok := m.(*ast.FuncLit); ok {
				lu := &unit{lit: lit, parent: obj, spawned: c.spawnedLit[lit]}
				c.units = append(c.units, lu)
				c.analyzeUnit(lu, len(c.units)-1, cfgs.FuncLit(lit), guardedby.LockState{})
				return false
			}
			return true
		})
	})

	c.report()
	return nil, nil
}

// collectCandidates scans struct declarations for mutex-bearing
// structs and registers their unannotated plain fields.
func (c *checker) collectCandidates(insp *inspector.Inspector) {
	insp.Preorder([]ast.Node{(*ast.GenDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.GenDecl)
		for _, s := range decl.Specs {
			spec, ok := s.(*ast.TypeSpec)
			if !ok {
				continue
			}
			doc := spec.Doc
			if doc == nil && len(decl.Specs) == 1 {
				doc = decl.Doc
			}
			c.collectStruct(spec, doc)
		}
	})
}

func (c *checker) collectStruct(spec *ast.TypeSpec, doc *ast.CommentGroup) {
	st, ok := spec.Type.(*ast.StructType)
	if !ok || st.Fields == nil {
		return
	}
	if confined(doc) {
		return // API contract serializes instances: not shared state
	}
	hasMutex := false
	for _, f := range st.Fields.List {
		for _, nm := range f.Names {
			if obj, ok := c.pass.TypesInfo.Defs[nm].(*types.Var); ok && guardedby.IsMutexType(obj.Type()) {
				hasMutex = true
			}
		}
	}
	if !hasMutex {
		return
	}
	for _, f := range st.Fields.List {
		if guardedby.Annotated(f) {
			continue // guardedby enforces the declared contract
		}
		for _, nm := range f.Names {
			obj, ok := c.pass.TypesInfo.Defs[nm].(*types.Var)
			if !ok || !plainShared(obj.Type()) {
				continue
			}
			c.fields[obj] = &candidate{structName: spec.Name.Name, fieldName: nm.Name}
			c.owners[spec.Name.Name] = true
		}
	}
}

// confined reports whether a type doc declares the eos:confined
// contract (instances driven by one goroutine at a time).
func confined(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, cm := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//"))
		if text == "eos:confined" || strings.HasPrefix(text, "eos:confined ") {
			return true
		}
	}
	return false
}

// plainShared reports whether a field of type t is an unsynchronized
// shared variable: not a lock, not hardware-ordered, not a channel.
func plainShared(t types.Type) bool {
	if guardedby.IsAtomicType(t) || isSyncType(t) {
		return false
	}
	u := t.Underlying()
	if p, ok := u.(*types.Pointer); ok {
		if _, isChan := p.Elem().Underlying().(*types.Chan); isChan {
			return false
		}
	}
	_, isChan := u.(*types.Chan)
	return !isChan
}

// collectRoots finds every go statement, marks spawned literals, and
// computes the set of functions reachable from a spawn through the
// ssa CHA call graph.
func (c *checker) collectRoots(insp *inspector.Inspector) {
	var work []*types.Func
	resolve := func(call *ast.CallExpr) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		var id *ast.Ident
		if ok {
			id = sel.Sel
		} else {
			id, _ = call.Fun.(*ast.Ident)
		}
		if id == nil {
			return
		}
		if fn, ok := c.pass.TypesInfo.Uses[id].(*types.Func); ok {
			work = append(work, fn)
		}
	}
	insp.Preorder([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node) {
		g := n.(*ast.GoStmt)
		if c.inTestFile(g.Pos()) {
			return
		}
		if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
			c.spawnedLit[lit] = true
			// Everything the spawned literal calls runs on the new
			// goroutine.
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					resolve(call)
				}
				return true
			})
			return
		}
		resolve(g.Call)
	})
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		if c.reachable[fn] {
			continue
		}
		c.reachable[fn] = true
		f, ok := c.pr.ByObj[fn]
		if !ok {
			continue
		}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				work = append(work, b.Instrs[i].Callees...)
			}
		}
	}
}

// collectShared computes the post-publication phase: the CHA closure
// of every exported declaration that is not a constructor.  A
// constructor is an exported package-level function whose results
// include a candidate-owning struct of this package — everything
// reachable only from constructors runs before the value escapes to
// another goroutine and takes no part in the lockset intersection.
func (c *checker) collectShared(insp *inspector.Inspector) {
	var work []*types.Func
	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		obj, ok := c.pass.TypesInfo.Defs[decl.Name].(*types.Func)
		if !ok || !decl.Name.IsExported() || c.inTestFile(decl.Pos()) {
			return
		}
		if decl.Recv == nil && c.isConstructor(obj) {
			return
		}
		work = append(work, obj)
	})
	// Goroutine cones are shared by definition, wherever spawned.
	for fn := range c.reachable {
		work = append(work, fn)
	}
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		if c.shared[fn] {
			continue
		}
		c.shared[fn] = true
		f, ok := c.pr.ByObj[fn]
		if !ok {
			continue
		}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				work = append(work, b.Instrs[i].Callees...)
			}
		}
	}
}

// inTestFile reports whether pos lies in a _test.go file: tests drive
// the engine from their own goroutine with their own synchronization
// and are outside the lockset discipline.
func (c *checker) inTestFile(pos token.Pos) bool {
	return strings.HasSuffix(c.pass.Fset.Position(pos).Filename, "_test.go")
}

// isConstructor reports whether fn returns a candidate-owning struct
// type declared in this package.
func (c *checker) isConstructor(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		t := res.At(i).Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok &&
			named.Obj().Pkg() == c.pass.Pkg && c.owners[named.Obj().Name()] {
			return true
		}
	}
	return false
}

// inSharedPhase reports whether a unit's accesses can overlap another
// goroutine's.
func (c *checker) inSharedPhase(u *unit) bool {
	if u.spawned {
		return true
	}
	if u.obj != nil {
		return c.shared[u.obj]
	}
	return u.parent != nil && c.shared[u.parent]
}

// seed canonicalizes a declaration's eos:requires tokens: "sh.mu"
// resolves sh against the receiver and parameters to "shard.mu".
func (c *checker) seed(decl *ast.FuncDecl) guardedby.LockState {
	raw := guardedby.ParseRequires(decl.Doc)
	if len(raw) == 0 {
		return raw
	}
	byName := make(map[string]types.Type)
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, nm := range f.Names {
				if obj, ok := c.pass.TypesInfo.Defs[nm].(*types.Var); ok {
					byName[nm.Name] = obj.Type()
				}
			}
		}
	}
	collect(decl.Recv)
	if decl.Type.Params != nil {
		collect(decl.Type.Params)
	}
	out := guardedby.LockState{}
	for tok, m := range raw {
		if base, field, ok := strings.Cut(tok, "."); ok {
			if t, found := byName[base]; found {
				if owner := ownerTypeName(t); owner != "" {
					out[owner+"."+field] = m
					continue
				}
			}
		}
		out[tok] = m
	}
	return out
}

// analyzeUnit runs the must-hold dataflow over one body and records
// candidate-field accesses with their locksets.
func (c *checker) analyzeUnit(u *unit, idx int, g *cfg.CFG, seed guardedby.LockState) {
	if g == nil || !c.inSharedPhase(u) {
		return
	}
	fresh := freshLocals(u.body(), c.pass.TypesInfo)
	concurrent := u.spawned || (u.obj != nil && c.reachable[u.obj])
	c.ls.Run(g, seed, func(sel *ast.SelectorExpr, st guardedby.LockState, write bool) {
		c.recordAccess(sel, st, idx, fresh, concurrent, write)
	})
}

func (u *unit) body() *ast.BlockStmt {
	if u.decl != nil {
		return u.decl.Body
	}
	return u.lit.Body
}

// canonicalLock names a mutex expression by its owner type and field
// ("shard.mu"), falling back to the expression text for package-level
// or local mutexes.
func canonicalLock(info *types.Info, mutexExpr ast.Expr) string {
	if sel, ok := mutexExpr.(*ast.SelectorExpr); ok {
		if selection, found := info.Selections[sel]; found {
			if field, ok := selection.Obj().(*types.Var); ok && field.IsField() {
				if owner := ownerTypeName(selection.Recv()); owner != "" {
					return owner + "." + field.Name()
				}
			}
		}
	}
	return types.ExprString(mutexExpr)
}

// recordAccess registers sel if it touches a candidate field (local or
// fact-carrying imported) outside a fresh allocation.
func (c *checker) recordAccess(sel *ast.SelectorExpr, st guardedby.LockState, uidx int, fresh map[types.Object]bool, concurrent, write bool) {
	fieldObj, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !fieldObj.IsField() {
		return
	}
	if _, local := c.fields[fieldObj]; !local {
		// Imported-package field: only interesting if the defining
		// package summarized it as a candidate.
		var imported RaceFact
		if fieldObj.Pkg() == c.pass.Pkg || !c.pass.ImportObjectFact(fieldObj, &imported) {
			return
		}
		owner := ""
		if selection, found := c.pass.TypesInfo.Selections[sel]; found {
			owner = ownerTypeName(selection.Recv())
		}
		c.fields[fieldObj] = &candidate{structName: owner, fieldName: fieldObj.Name()}
	}
	if base := baseIdent(sel.X); base != nil {
		if obj := c.pass.TypesInfo.Uses[base]; obj != nil && fresh[obj] {
			return // thread-local until escape
		}
	}
	locks := make(map[string]bool, len(st))
	for k := range st {
		locks[k] = true
	}
	c.accesses[fieldObj] = append(c.accesses[fieldObj], access{
		pos: sel.Pos(), write: write, unit: uidx, locks: locks, concurrent: concurrent,
	})
}

// baseIdent returns the root identifier of a selector chain
// (x in x.a.b[i].c), or nil.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// freshLocals finds locals defined from a fresh allocation (composite
// literal, &composite, new): values still private to this function.
func freshLocals(body *ast.BlockStmt, info *types.Info) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	if body == nil {
		return fresh
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if !isFreshExpr(as.Rhs[i], info) {
				continue
			}
			if obj := info.Defs[id]; obj != nil {
				fresh[obj] = true
			}
		}
		return true
	})
	return fresh
}

func isFreshExpr(e ast.Expr, info *types.Info) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			_, isLit := v.X.(*ast.CompositeLit)
			return isLit
		}
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "new" {
			_, isBuiltin := info.Uses[id].(*types.Builtin)
			return isBuiltin
		}
	}
	return false
}

// report merges local evidence with imported facts, exports summaries
// for locally declared fields, and reports empty-lockset fields.
func (c *checker) report() {
	// Stable iteration order: by field position.
	fields := make([]*types.Var, 0, len(c.accesses))
	for f := range c.accesses {
		fields = append(fields, f)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].Pos() < fields[j].Pos() })

	for _, fieldObj := range fields {
		accs := c.accesses[fieldObj]
		sort.Slice(accs, func(i, j int) bool { return accs[i].pos < accs[j].pos })

		sum := &RaceFact{}
		unitsSeen := make(map[int]bool)
		var common map[string]bool
		for _, a := range accs {
			if a.write {
				sum.Writes++
			} else {
				sum.Reads++
			}
			unitsSeen[a.unit] = true
			sum.Concurrent = sum.Concurrent || a.concurrent
			if common == nil {
				common = make(map[string]bool, len(a.locks))
				for k := range a.locks {
					common[k] = true
				}
			} else {
				for k := range common {
					if !a.locks[k] {
						delete(common, k)
					}
				}
			}
		}
		sum.Units = len(unitsSeen)
		for k := range common {
			sum.Lockset = append(sum.Lockset, k)
		}
		sort.Strings(sum.Lockset)

		// Merge the defining package's summary for imported fields, or
		// a lower package's view has already been folded in for local
		// ones being re-exported.
		var imported RaceFact
		if fieldObj.Pkg() != c.pass.Pkg && c.pass.ImportObjectFact(fieldObj, &imported) {
			sum.Reads += imported.Reads
			sum.Writes += imported.Writes
			sum.Units += imported.Units
			sum.Concurrent = sum.Concurrent || imported.Concurrent
			sum.Lockset = intersectSorted(sum.Lockset, imported.Lockset)
		}
		if fieldObj.Pkg() == c.pass.Pkg {
			c.pass.ExportObjectFact(fieldObj, sum)
		}

		if sum.Units < 2 || sum.Writes == 0 || !sum.Concurrent || len(sum.Lockset) > 0 {
			continue
		}
		cand := c.fields[fieldObj]
		if cand == nil {
			cand = &candidate{fieldName: fieldObj.Name()}
		}
		// Report at the first write; point at the earliest access from
		// a different unit as the conflicting side.
		site := accs[0]
		for _, a := range accs {
			if a.write {
				site = a
				break
			}
		}
		var related []analysis.RelatedInformation
		for _, a := range accs {
			if a.unit != site.unit {
				related = []analysis.RelatedInformation{{
					Pos: a.pos, Message: "conflicting access with no lock in common"}}
				break
			}
		}
		c.ig.ReportRelated(site.pos, related,
			"field %s.%s is accessed by %d functions on a goroutine-reachable path with no common lock (%d reads, %d writes); guard it, make it atomic, or annotate eos:guardedby (lockset rule)",
			cand.structName, cand.fieldName, sum.Units, sum.Reads, sum.Writes)
	}
}

func intersectSorted(a, b []string) []string {
	inB := make(map[string]bool, len(b))
	for _, s := range b {
		inB[s] = true
	}
	var out []string
	for _, s := range a {
		if inB[s] {
			out = append(out, s)
		}
	}
	return out
}

// isSyncType reports whether t is any other sync package type
// (WaitGroup, Once, Cond, Map, Pool): synchronization state, not a
// shared plain field.
func isSyncType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync"
}

func ownerTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// writeTarget strips index positions off a store target: m[k] = v
// writes m, while k is only read.  Taking the address of a composite
// literal writes nothing: the fields read inside it stay reads.
func writeTarget(e ast.Expr) ast.Expr {
	for {
		switch v := e.(type) {
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.CompositeLit:
			return nil
		default:
			return e
		}
	}
}
