// Package pairs defines an Analyzer that enforces the engine's
// acquire/release disciplines through one table-driven pairing engine.
// It generalizes the original pinpair checker: every resource class is
// a Spec naming its acquire calls, its release calls, how the resource
// token is identified at each site, and which paths must release.
//
// The default table covers the disciplines the storage engine depends
// on:
//
//	pin      buffer.Pool.Fix/FixNew        → Unpin/Discard   (all paths)
//	latch    ranked mutex Lock/RLock       → Unlock/RUnlock  (all paths)
//	txn      eos.Store.Begin               → Commit/Abort
//	epoch    txn.EpochManager.Enter        → EpochGuard.Exit (all paths)
//	alloc    buddy Alloc/AllocUpTo         → Free/FreeUnpublished (error paths)
//	filevol  disk.Create/OpenFileVolume    → Close           (error paths)
//
// A leaked pin makes a frame permanently unevictable; a leaked latch
// deadlocks the next acquirer; an unfinished transaction holds its
// two-phase locks forever; a leaked epoch guard pins its epoch and
// blocks page reclamation for the life of the process; and pages
// allocated on a failed operation path leak from the buddy space
// unless freed before the error return.  A file volume opened on a
// failed setup path leaks its descriptor and keeps the page file pinned.  The epoch spec stops
// tracking a guard at its first other use (stored into a snapshot
// structure, handed to a callee) — ownership transferred, and the new
// owner's Close path carries the Exit.  The alloc spec checks only error-returning exits — on
// success the pages' ownership transfers to the object tree — and
// stops tracking a token at its first other use (ownership handed to
// a callee or stored into a structure).
//
// Pairing is checked along the control-flow graph from each acquire
// site, exactly as pinpair did: a diagnostic means some path reaches a
// function exit holding the resource.  The error-check branch guarding
// a fallible acquire is exempt (a failed acquire acquires nothing),
// and a deferred release covers every exit.
//
// The check extends across unexported helpers through analysis facts:
// a function that releases a resource received as a parameter (or
// receiver) exports a ReleasesFact, and a call to it counts as a
// release of the corresponding argument at every call site, including
// call sites in other packages.  A helper that releases only on some
// of its own paths is still treated as a releaser at call sites; the
// helper's own body is where the partial release is visible.
//
// The -extra flag appends simple specs of the pin shape
// ("name=pkg.Type.Acq1|Acq2->pkg.Type.Rel1|Rel2", semicolon-
// separated, first-argument-keyed, error-guarded) so new paired APIs
// can be enforced without recompiling the analyzer.
//
// Test files are exempt: tests hold pins, latches, and transactions
// across assertions deliberately.
package pairs

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"github.com/eosdb/eos/internal/analysis/eosutil"
	"github.com/eosdb/eos/internal/analysis/ignore"
	"github.com/eosdb/eos/internal/analysis/ssa"
)

const doc = `check that paired acquire/release calls balance on every path

Each resource class (buffer pins, ranked latches, transactions, buddy
allocations) pairs an acquire call with a release call.  A path from an
acquire to a function exit that misses the release leaks the resource:
frames stay unevictable, latches deadlock their next acquirer,
transactions hold their locks forever, allocations leak pages.  The
table is extensible with -extra; helpers that release a parameter are
recognized across function and package boundaries via analysis facts.`

// Analyzer is the pairs analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "pairs",
	Doc:       doc,
	Requires:  []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer, ignore.Analyzer},
	Run:       run,
	FactTypes: []analysis.Fact{new(ReleasesFact)},
}

// KeyFrom says where a site's resource token is read.
type KeyFrom int

const (
	// KeyArg0 keys the resource by the call's first argument (the page
	// of Fix(pg) and Unpin(pg)).
	KeyArg0 KeyFrom = iota
	// KeyRecv keys the resource by the method receiver (the t of
	// t.Commit()).
	KeyRecv
	// KeyResult0 keys the resource by the variable the call's first
	// result is assigned to (the t of t, err := s.Begin()).
	KeyResult0
)

// matcher selects method calls by package name, receiver type name
// (struct or interface), and method names.  A matcher with an empty
// typ instead selects package-level functions of pkg named in methods
// (the acquire side of constructor→Close disciplines).
type matcher struct {
	pkg, typ string
	methods  []string
}

// Spec describes one acquire/release discipline.
type Spec struct {
	// Name labels the resource in diagnostics, facts, and -extra
	// entries ("pin", "latch", "txn", "alloc").
	Name string

	// Acquire and Release match the paired calls.  Unused for the
	// mutex kind.
	Acquire, Release []matcher
	// AcquireKey and ReleaseKey locate the resource token at each site.
	AcquireKey, ReleaseKey KeyFrom

	// ErrGuarded marks acquires whose last result is an error: the
	// branch testing that error right after the call acquired nothing.
	ErrGuarded bool
	// ErrorPathsOnly restricts leak reports to error-returning exits:
	// on success the resource's ownership transfers to the caller's
	// data structures.
	ErrorPathsOnly bool
	// TransferOnUse stops tracking a token at its first statement-level
	// use other than the release call (stored, passed to a callee,
	// returned): the resource was handed off.  Reads inside branch
	// conditions do not transfer.
	TransferOnUse bool

	// MutexFields switches the spec to the mutex kind: acquire is
	// Lock/RLock and release Unlock/RUnlock on any "Type.field" listed.
	MutexFields map[string]bool

	// Hint is appended to diagnostics.
	Hint string
}

// rankedMutexes is the lockorder lattice's key set: the engine mutexes
// whose Lock must pair with an Unlock on every path.  Derived from the
// canonical table in the ssa facility so the pairing and ordering
// checks share one lattice.
var rankedMutexes = func() map[string]bool {
	m := make(map[string]bool)
	for k := range ssa.LockRanks() {
		m[k] = true
	}
	return m
}()

// DefaultSpecs returns the engine's pairing table.  The leaksip
// analyzer shares it so the whole-program extension can never disagree
// with this analyzer about what pairs with what.
func DefaultSpecs() []*Spec {
	return defaultSpecs()
}

// defaultSpecs returns the engine's pairing table.
func defaultSpecs() []*Spec {
	return []*Spec{
		{
			Name:       "pin",
			Acquire:    []matcher{{"buffer", "Pool", []string{"Fix", "FixNew"}}},
			Release:    []matcher{{"buffer", "Pool", []string{"Unpin", "Discard"}}},
			AcquireKey: KeyArg0,
			ReleaseKey: KeyArg0,
			ErrGuarded: true,
			Hint:       "add defer Unpin after the error check",
		},
		{
			Name:        "latch",
			MutexFields: rankedMutexes,
			Hint:        "unlock on every path, or defer the unlock",
		},
		{
			Name:       "txn",
			Acquire:    []matcher{{"eos", "Store", []string{"Begin"}}},
			Release:    []matcher{{"eos", "Txn", []string{"Commit", "Abort"}}},
			AcquireKey: KeyResult0,
			ReleaseKey: KeyRecv,
			ErrGuarded: true,
			Hint:       "commit or abort on every path; an unfinished transaction holds its locks forever",
		},
		{
			Name:          "epoch",
			Acquire:       []matcher{{"txn", "EpochManager", []string{"Enter"}}},
			Release:       []matcher{{"txn", "EpochGuard", []string{"Exit"}}},
			AcquireKey:    KeyResult0,
			ReleaseKey:    KeyRecv,
			TransferOnUse: true,
			Hint:          "Exit the guard on every path (or hand it off); a leaked pin blocks epoch reclamation forever",
		},
		{
			Name: "alloc",
			Acquire: []matcher{
				{"buddy", "Manager", []string{"Alloc", "AllocUpTo"}},
				{"lob", "Allocator", []string{"Alloc", "AllocUpTo"}},
			},
			Release: []matcher{
				{"buddy", "Manager", []string{"Free", "FreeUnpublished"}},
				{"lob", "Allocator", []string{"Free", "FreeUnpublished"}},
			},
			AcquireKey:     KeyResult0,
			ReleaseKey:     KeyArg0,
			ErrGuarded:     true,
			ErrorPathsOnly: true,
			TransferOnUse:  true,
			Hint:           "free the pages (or hand them off) before returning the error",
		},
		{
			Name: "filevol",
			Acquire: []matcher{
				{"disk", "", []string{"CreateFileVolume", "OpenFileVolume"}},
			},
			Release:        []matcher{{"disk", "FileVolume", []string{"Close"}}},
			AcquireKey:     KeyResult0,
			ReleaseKey:     KeyRecv,
			ErrGuarded:     true,
			ErrorPathsOnly: true,
			TransferOnUse:  true,
			Hint:           "close the volume (or hand it off) before returning the error; a leaked descriptor pins the page file",
		},
	}
}

var extraFlag string

func init() {
	Analyzer.Flags.StringVar(&extraFlag, "extra", "",
		`extra specs, semicolon-separated "name=pkg.Type.Acq1|Acq2->pkg.Type.Rel1|Rel2" (arg0-keyed, error-guarded)`)
}

// parseExtra parses one -extra entry.
func parseExtra(ent string) (*Spec, error) {
	bad := func() error { return fmt.Errorf("pairs: bad -extra entry %q", ent) }
	name, rest, ok := strings.Cut(ent, "=")
	if !ok || name == "" {
		return nil, bad()
	}
	acq, rel, ok := strings.Cut(rest, "->")
	if !ok {
		return nil, bad()
	}
	parse := func(s string) (matcher, error) {
		parts := strings.SplitN(s, ".", 3)
		if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
			return matcher{}, bad()
		}
		return matcher{pkg: parts[0], typ: parts[1], methods: strings.Split(parts[2], "|")}, nil
	}
	am, err := parse(strings.TrimSpace(acq))
	if err != nil {
		return nil, err
	}
	rm, err := parse(strings.TrimSpace(rel))
	if err != nil {
		return nil, err
	}
	return &Spec{
		Name:       name,
		Acquire:    []matcher{am},
		Release:    []matcher{rm},
		AcquireKey: KeyArg0,
		ReleaseKey: KeyArg0,
		ErrGuarded: true,
	}, nil
}

// ReleasesFact marks a function that releases resources received as
// parameters: calling it releases the corresponding arguments.
type ReleasesFact struct {
	Params []ParamRelease
}

// ParamRelease is one released parameter: the Spec name, the
// parameter index (-1 for the receiver), and a token suffix for mutex
// resources (".mu" when the function unlocks param.mu).
type ParamRelease struct {
	Spec   string
	Param  int
	Suffix string
}

// AFact marks ReleasesFact as an analysis fact.
func (*ReleasesFact) AFact() {}

func (f *ReleasesFact) String() string {
	var parts []string
	for _, p := range f.Params {
		parts = append(parts, fmt.Sprintf("%s:%d%s", p.Spec, p.Param, p.Suffix))
	}
	return "releases(" + strings.Join(parts, ",") + ")"
}

// ReleaseHook recognizes releasing calls beyond the spec's own release
// matchers.  pairs plugs in its single-hop ReleasesFact lookup; the
// leaksip analyzer plugs in its transitively propagated summaries.
// The hook must be self-contained: when non-nil it fully replaces the
// fact lookup (an analyzer can only read facts of types it declares).
type ReleaseHook func(call *ast.CallExpr, sp *Spec, token string) bool

// Obligation is an externally derived acquire site: a call that
// transitively acquires a resource the caller must release.  The
// leaksip analyzer builds these from its whole-program summaries and
// checks them with the same path engine this analyzer uses for literal
// acquire calls.
type Obligation struct {
	Spec     *Spec
	Call     *ast.CallExpr
	Method   string // acquiring callee, for diagnostics
	Token    string // expression string identifying the resource
	TokenObj types.Object
	ErrVar   types.Object // error variable guarding the acquire, if any
}

// LeaksOn reports whether some path from ob's call to an exit of g
// misses the release, consulting hook for call-based releases.
func LeaksOn(pass *analysis.Pass, g *cfg.CFG, ob *Obligation, hook ReleaseHook) bool {
	s := &site{
		spec:     ob.Spec,
		call:     ob.Call,
		method:   ob.Method,
		token:    ob.Token,
		tokenObj: ob.TokenObj,
		errVar:   ob.ErrVar,
	}
	return leaks(pass, g, s, hook)
}

// ReleaseTokenOf reports whether call is one of sp's release calls,
// and the token it releases.
func (sp *Spec) ReleaseTokenOf(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	return releaseToken(pass, sp, call)
}

// AcquireSite reports whether call is one of sp's acquire calls.  The
// returned token identifies the resource for arg0-, receiver-, and
// mutex-keyed specs; result-keyed specs return an empty token (the
// caller resolves it from the enclosing assignment).
func (sp *Spec) AcquireSite(pass *analysis.Pass, call *ast.CallExpr) (method, token string, ok bool) {
	if sp.MutexFields != nil {
		_, m, tok, isLock := mutexEvent(pass, sp, call)
		if !isLock || (m != "Lock" && m != "RLock") {
			return "", "", false
		}
		return m, tok, true
	}
	m, matched := matchAny(pass, sp.Acquire, call)
	if !matched {
		return "", "", false
	}
	switch sp.AcquireKey {
	case KeyArg0:
		if len(call.Args) < 1 {
			return "", "", false
		}
		return m, types.ExprString(call.Args[0]), true
	case KeyRecv:
		sel, isSel := call.Fun.(*ast.SelectorExpr)
		if !isSel {
			return "", "", false
		}
		return m, types.ExprString(sel.X), true
	}
	return m, "", true
}

// ReleaseTokenAt resolves the token a releaser-fact entry releases at
// a concrete call site.
func ReleaseTokenAt(pass *analysis.Pass, call *ast.CallExpr, pr ParamRelease) (string, bool) {
	return releaseTokenAt(pass, call, pr)
}

// site is one acquire call under check.
type site struct {
	spec     *Spec
	call     *ast.CallExpr
	method   string
	token    string       // expression string identifying the resource
	tokenObj types.Object // variable object for KeyResult0 tokens
	errVar   types.Object // error variable guarding the acquire
	// guardIf is the `if errVar != nil` statement that actually guards
	// this acquire: the first test of errVar after the call and before
	// errVar is overwritten.  Later tests of a reused err variable
	// belong to other calls and exempt nothing.
	guardIf *ast.IfStmt
}

func run(pass *analysis.Pass) (interface{}, error) {
	specs := defaultSpecs()
	if extraFlag != "" {
		for _, ent := range strings.Split(extraFlag, ";") {
			s, err := parseExtra(strings.TrimSpace(ent))
			if err != nil {
				return nil, err
			}
			specs = append(specs, s)
		}
	}
	byName := make(map[string]*Spec, len(specs))
	for _, s := range specs {
		byName[s.Name] = s
	}

	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	ig := ignore.For(pass)

	exportReleaserFacts(pass, insp, specs, byName)

	nodeFilter := []ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}
	insp.Preorder(nodeFilter, func(n ast.Node) {
		if strings.HasSuffix(pass.Fset.Position(n.Pos()).Filename, "_test.go") {
			return
		}
		var body *ast.BlockStmt
		var g *cfg.CFG
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body == nil {
				return
			}
			body = fn.Body
			g = cfgs.FuncDecl(fn)
		case *ast.FuncLit:
			body = fn.Body
			g = cfgs.FuncLit(fn)
		}
		if g == nil {
			return
		}
		checkFunc(pass, ig, byName, specs, body, g)
	})
	return nil, nil
}

// exportReleaserFacts scans every function for releases of its own
// parameters (or receiver) and exports a ReleasesFact.  The scan
// iterates to a small fixpoint so a helper that releases through
// another helper is recognized too.
func exportReleaserFacts(pass *analysis.Pass, insp *inspector.Inspector, specs []*Spec, byName map[string]*Spec) {
	type fnInfo struct {
		obj  *types.Func
		decl *ast.FuncDecl
	}
	var fns []fnInfo
	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil {
			return
		}
		if strings.HasSuffix(pass.Fset.Position(decl.Pos()).Filename, "_test.go") {
			return
		}
		obj, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
		if !ok {
			return
		}
		fns = append(fns, fnInfo{obj, decl})
	})

	for iter := 0; iter < 4; iter++ {
		changed := false
		for _, fn := range fns {
			var have ReleasesFact
			pass.ImportObjectFact(fn.obj, &have)
			got := releasedParams(pass, byName, specs, fn.decl)
			if len(got) > len(have.Params) {
				pass.ExportObjectFact(fn.obj, &ReleasesFact{Params: got})
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// releasedParams lists the parameter releases performed by decl's
// body: a release call (direct or deferred, not inside a non-deferred
// literal) whose token names a parameter or the receiver.
func releasedParams(pass *analysis.Pass, byName map[string]*Spec, specs []*Spec, decl *ast.FuncDecl) []ParamRelease {
	// Parameter name → index; receiver → -1.
	params := make(map[string]int)
	if decl.Recv != nil && len(decl.Recv.List) == 1 {
		for _, nm := range decl.Recv.List[0].Names {
			params[nm.Name] = -1
		}
	}
	idx := 0
	if decl.Type.Params != nil {
		for _, field := range decl.Type.Params.List {
			for _, nm := range field.Names {
				params[nm.Name] = idx
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	if len(params) == 0 {
		return nil
	}

	var out []ParamRelease
	seen := make(map[ParamRelease]bool)
	add := func(spec, token, suffix string) {
		base := strings.TrimSuffix(token, suffix)
		if i, ok := params[base]; ok {
			pr := ParamRelease{Spec: spec, Param: i, Suffix: suffix}
			if !seen[pr] {
				seen[pr] = true
				out = append(out, pr)
			}
		}
	}
	scan := func(call *ast.CallExpr) {
		for _, sp := range specs {
			if sp.MutexFields != nil {
				if key, method, token, ok := mutexEvent(pass, sp, call); ok &&
					(method == "Unlock" || method == "RUnlock") {
					_ = key
					if i := strings.LastIndex(token, "."); i > 0 {
						add(sp.Name, token, token[i:])
					}
				}
				continue
			}
			if token, ok := releaseToken(pass, sp, call); ok {
				add(sp.Name, token, "")
			}
		}
		// A call to a known releaser releases its matching arguments.
		if fn := eosutil.CalleeAny(pass.TypesInfo, call); fn != nil {
			var fact ReleasesFact
			if pass.ImportObjectFact(fn, &fact) {
				for _, pr := range fact.Params {
					if _, ok := byName[pr.Spec]; !ok {
						continue
					}
					if tok, ok := releaseTokenAt(pass, call, pr); ok {
						add(pr.Spec, tok, pr.Suffix)
					}
				}
			}
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			scan(n.Call)
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						scan(call)
					}
					return true
				})
			}
			return false
		case *ast.CallExpr:
			scan(n)
		}
		return true
	})
	return out
}

// checkFunc checks every acquire site of one function body.
func checkFunc(pass *analysis.Pass, ig *ignore.Reporter, byName map[string]*Spec, specs []*Spec, body *ast.BlockStmt, g *cfg.CFG) {
	sites := collectSites(pass, specs, body)
	for _, s := range sites {
		// A release deferred before the acquire (defer b.Wait() ahead of
		// the submit loop) covers every exit but sits on no CFG path
		// from the acquire; recognize it lexically.
		if deferredReleaseBefore(pass, body, s) {
			continue
		}
		if leaks(pass, g, s, nil) {
			relNames := releaseNames(s.spec)
			switch {
			case s.spec.ErrorPathsOnly:
				ig.Report(s.call.Pos(),
					"%s leak: the resource from %s(...) in %q is not released on an error-return path (%s)",
					s.spec.Name, s.method, s.token, s.spec.Hint)
			default:
				ig.Report(s.call.Pos(),
					"%s leak: %s(%s) can reach a function exit without %s(%s) (%s)",
					s.spec.Name, s.method, s.token, relNames, s.token, s.spec.Hint)
			}
		}
	}
}

// deferredReleaseBefore reports whether body registers a deferred
// release of s's resource lexically before the acquire call (and not
// inside a nested function literal).  Such a defer runs at every
// function exit, so the acquire cannot leak.
func deferredReleaseBefore(pass *analysis.Pass, body *ast.BlockStmt, s *site) bool {
	covered := false
	ast.Inspect(body, func(n ast.Node) bool {
		if covered {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if n.Pos() < s.call.Pos() && nodeEffect(pass, n, s, nil) == effectRelease {
				covered = true
			}
			return false
		}
		return true
	})
	return covered
}

func releaseNames(sp *Spec) string {
	if sp.MutexFields != nil {
		return "Unlock"
	}
	seen := make(map[string]bool)
	var names []string
	for _, m := range sp.Release {
		for _, n := range m.methods {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	return strings.Join(names, "/")
}

// collectSites finds the acquire calls lexically inside body but not
// inside a nested function literal.
func collectSites(pass *analysis.Pass, specs []*Spec, body *ast.BlockStmt) []*site {
	var sites []*site
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, sp := range specs {
			if sp.MutexFields != nil {
				_, method, token, ok := mutexEvent(pass, sp, call)
				if ok && (method == "Lock" || method == "RLock") {
					sites = append(sites, &site{spec: sp, call: call, method: method, token: token})
				}
				continue
			}
			m, ok := matchAny(pass, sp.Acquire, call)
			if !ok {
				continue
			}
			s := &site{spec: sp, call: call, method: m}
			switch sp.AcquireKey {
			case KeyArg0:
				if len(call.Args) < 1 {
					continue
				}
				s.token = types.ExprString(call.Args[0])
			case KeyRecv:
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				s.token = types.ExprString(sel.X)
			case KeyResult0:
				// Resolved from the enclosing assignment below.
			}
			sites = append(sites, s)
		}
		return true
	})
	if len(sites) == 0 {
		return nil
	}
	// Attach assignment-derived state: the error variable guarding each
	// fallible acquire, and the token variable of result-keyed sites.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, s := range sites {
			if s.call != call {
				continue
			}
			if s.spec.ErrGuarded && len(as.Lhs) >= 1 {
				// The error is the last result — which may be the only
				// one (err := b.Submit(sqe)).
				if id, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident); ok && id.Name != "_" {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil && eosutil.IsErrorType(obj.Type()) {
						s.errVar = obj
					}
				}
			}
			if s.spec.AcquireKey == KeyResult0 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					s.token = id.Name
					s.tokenObj = pass.TypesInfo.ObjectOf(id)
				}
			}
		}
		return true
	})
	// Result-keyed sites whose result was discarded have no token to
	// track; drop them.
	kept := sites[:0]
	for _, s := range sites {
		if s.spec.AcquireKey == KeyResult0 && s.tokenObj == nil {
			continue
		}
		kept = append(kept, s)
	}
	for _, s := range kept {
		attachGuard(pass, body, s)
	}
	return kept
}

// attachGuard locates the `if errVar != nil` statement that guards s:
// the first test of s.errVar after the acquire call and before the
// variable is written again.  A reused err variable makes every later
// `if err != nil` look like a guard; only the one before the next
// write belongs to this acquire.
func attachGuard(pass *analysis.Pass, body *ast.BlockStmt, s *site) {
	if s.errVar == nil {
		return
	}
	// First write to errVar strictly after the acquire (the acquire's
	// own assignment contains the call and is skipped by position).
	var nextWrite token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Pos() <= s.call.End() {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == s.errVar {
				if nextWrite == token.NoPos || as.Pos() < nextWrite {
					nextWrite = as.Pos()
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !condTestsVar(pass, ifs.Cond, s.errVar) {
			return true
		}
		pos := ifs.Cond.Pos()
		if pos <= s.call.End() || (nextWrite != token.NoPos && pos >= nextWrite) {
			return true
		}
		if s.guardIf == nil || pos < s.guardIf.Cond.Pos() {
			s.guardIf = ifs
		}
		return true
	})
}

// condTestsVar reports whether cond is a binary comparison mentioning
// obj.
func condTestsVar(pass *analysis.Pass, cond ast.Expr, obj types.Object) bool {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	if x, ok := bin.X.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(x) == obj {
		return true
	}
	if y, ok := bin.Y.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(y) == obj {
		return true
	}
	return false
}

// matchAny matches call against a matcher list, returning the method.
func matchAny(pass *analysis.Pass, ms []matcher, call *ast.CallExpr) (string, bool) {
	for _, m := range ms {
		if m.typ == "" {
			if name, ok := isPkgFuncCall(pass.TypesInfo, call, m.pkg, m.methods); ok {
				return name, true
			}
			continue
		}
		if name, ok := eosutil.IsMethodCallAny(pass.TypesInfo, call, m.pkg, m.typ, m.methods...); ok {
			return name, true
		}
	}
	return "", false
}

// isPkgFuncCall reports whether call invokes a package-level function
// of the package named pkg with one of the given names.  Matching is
// by package name (not import path), like the method matcher, so
// analysistest fixtures can declare stand-in packages.
func isPkgFuncCall(info *types.Info, call *ast.CallExpr, pkg string, funcs []string) (string, bool) {
	fn := eosutil.CalleeAny(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != pkg {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false
	}
	for _, m := range funcs {
		if fn.Name() == m {
			return m, true
		}
	}
	return "", false
}

// mutexEvent classifies call as Lock/RLock/Unlock/RUnlock on one of
// the spec's ranked mutex fields, returning the "Type.field" key, the
// method, and the owner token ("sh.mu").
func mutexEvent(pass *analysis.Pass, sp *Spec, call *ast.CallExpr) (key, method, token string, ok bool) {
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
	selection, found := pass.TypesInfo.Selections[fieldSel]
	if !found {
		return "", "", "", false
	}
	field, isVar := selection.Obj().(*types.Var)
	if !isVar || !field.IsField() {
		return "", "", "", false
	}
	owner := ownerTypeName(selection.Recv())
	if owner == "" {
		return "", "", "", false
	}
	key = owner + "." + field.Name()
	if !sp.MutexFields[key] {
		return "", "", "", false
	}
	return key, method, types.ExprString(fieldSel), true
}

// ownerTypeName returns the name of the named type t denotes
// (unwrapping pointers), or "".
func ownerTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// releaseToken reports whether call is a release call of sp, and the
// token it releases.
func releaseToken(pass *analysis.Pass, sp *Spec, call *ast.CallExpr) (string, bool) {
	if sp.MutexFields != nil {
		_, method, token, ok := mutexEvent(pass, sp, call)
		if !ok || (method != "Unlock" && method != "RUnlock") {
			return "", false
		}
		return token, true
	}
	if _, ok := matchAny(pass, sp.Release, call); !ok {
		return "", false
	}
	switch sp.ReleaseKey {
	case KeyArg0:
		if len(call.Args) < 1 {
			return "", false
		}
		return types.ExprString(call.Args[0]), true
	case KeyRecv:
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		return types.ExprString(sel.X), true
	}
	return "", false
}

// releaseTokenAt resolves the token a releaser-fact entry releases at
// a concrete call site.
func releaseTokenAt(pass *analysis.Pass, call *ast.CallExpr, pr ParamRelease) (string, bool) {
	if pr.Param == -1 {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		return types.ExprString(sel.X) + pr.Suffix, true
	}
	if pr.Param >= len(call.Args) {
		return "", false
	}
	return types.ExprString(call.Args[pr.Param]) + pr.Suffix, true
}

// leaks reports whether some path from s's acquire to a function exit
// misses the release.  A nil hook means this analyzer's own
// ReleasesFact lookup recognizes releaser calls.
func leaks(pass *analysis.Pass, g *cfg.CFG, s *site, hook ReleaseHook) bool {
	start, startIdx := findNode(g, s.call)
	if start == nil {
		return false // CFG elided the call (dead code)
	}
	seen := map[*cfg.Block]bool{start: true}
	var visit func(b *cfg.Block, from int) bool
	visit = func(b *cfg.Block, from int) bool {
		if b != start || from == 0 {
			if b != start {
				if seen[b] {
					return false
				}
				seen[b] = true
			} else if seen[start] {
				return false // looped back to the acquire block
			}
			// The then-branch of the acquire's own error check runs
			// only when nothing was acquired.
			if isErrGuard(pass, b, s) {
				return false
			}
		}
		for i := from; i < len(b.Nodes); i++ {
			switch nodeEffect(pass, b.Nodes[i], s, hook) {
			case effectRelease, effectTransfer:
				return false
			}
		}
		if len(b.Succs) == 0 {
			if b.Kind == cfg.KindUnreachable {
				return false
			}
			if s.spec.ErrorPathsOnly {
				return isErrorReturn(pass, b)
			}
			return true
		}
		for _, succ := range b.Succs {
			if visit(succ, 0) {
				return true
			}
		}
		return false
	}
	return visit(start, startIdx+1)
}

// findNode returns the live block containing n and its node index.
func findNode(g *cfg.CFG, target ast.Node) (*cfg.Block, int) {
	for _, b := range g.Blocks {
		if !b.Live {
			continue
		}
		for i, n := range b.Nodes {
			found := false
			ast.Inspect(n, func(m ast.Node) bool {
				if m == target {
					found = true
				}
				return !found
			})
			if found {
				return b, i
			}
		}
	}
	return nil, 0
}

// isErrGuard reports whether b is the then-branch of the `if err != nil`
// statement guarding this acquire.  Literal sites carry the precise
// guard statement found by attachGuard; obligation sites from leaksip
// fall back to matching any test of the error variable.
func isErrGuard(pass *analysis.Pass, b *cfg.Block, s *site) bool {
	if s.errVar == nil || b.Kind != cfg.KindIfThen {
		return false
	}
	ifStmt, ok := b.Stmt.(*ast.IfStmt)
	if !ok {
		return false
	}
	if s.guardIf != nil {
		return ifStmt == s.guardIf
	}
	return condTestsVar(pass, ifStmt.Cond, s.errVar)
}

// isErrorReturn reports whether exit block b returns a non-nil error
// expression.
func isErrorReturn(pass *analysis.Pass, b *cfg.Block) bool {
	for _, n := range b.Nodes {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			continue
		}
		for _, res := range ret.Results {
			if id, ok := res.(*ast.Ident); ok && id.Name == "nil" {
				continue
			}
			if tv, ok := pass.TypesInfo.Types[res]; ok && eosutil.IsErrorType(tv.Type) {
				return true
			}
		}
	}
	return false
}

type effect int

const (
	effectNone effect = iota
	effectRelease
	effectTransfer
)

// nodeEffect classifies CFG node n's effect on s's resource: a release
// (direct, deferred, or via a releaser-fact call), an ownership
// transfer (TransferOnUse specs), or nothing.
func nodeEffect(pass *analysis.Pass, n ast.Node, s *site, hook ReleaseHook) effect {
	released := false
	scanCalls := func(root ast.Node, includeLits bool) {
		ast.Inspect(root, func(m ast.Node) bool {
			if released {
				return false
			}
			if _, ok := m.(*ast.FuncLit); ok && !includeLits {
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callReleases(pass, call, s, hook) {
				released = true
				return false
			}
			return true
		})
	}
	switch n := n.(type) {
	case *ast.DeferStmt:
		if callReleases(pass, n.Call, s, hook) {
			return effectRelease
		}
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			scanCalls(lit.Body, true)
			if released {
				return effectRelease
			}
		}
		return effectNone
	default:
		scanCalls(n, false)
		if released {
			return effectRelease
		}
		// Only statement-level uses hand ownership off (a store, a call
		// argument, a return value).  A read inside a branch condition —
		// which appears in the CFG as a bare expression node — keeps the
		// resource tracked.
		if _, isStmt := n.(ast.Stmt); isStmt &&
			s.spec.TransferOnUse && s.tokenObj != nil && usesToken(pass, n, s) {
			return effectTransfer
		}
		return effectNone
	}
}

// callReleases reports whether call releases s's resource: a matching
// release call on the same token, or a releaser call recognized by the
// hook (when set) or this analyzer's own ReleasesFact (when not).
func callReleases(pass *analysis.Pass, call *ast.CallExpr, s *site, hook ReleaseHook) bool {
	if tok, ok := releaseToken(pass, s.spec, call); ok && tok == s.token {
		return true
	}
	if hook != nil {
		return hook(call, s.spec, s.token)
	}
	fn := eosutil.CalleeAny(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	var fact ReleasesFact
	if !pass.ImportObjectFact(fn, &fact) {
		return false
	}
	for _, pr := range fact.Params {
		if pr.Spec != s.spec.Name {
			continue
		}
		if tok, ok := releaseTokenAt(pass, call, pr); ok && tok == s.token {
			return true
		}
	}
	return false
}

// usesToken reports whether n mentions s's token variable outside a
// release context — for TransferOnUse specs this hands ownership off.
func usesToken(pass *analysis.Pass, n ast.Node, s *site) bool {
	used := false
	ast.Inspect(n, func(m ast.Node) bool {
		if used {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == s.tokenObj {
			// The defining assignment itself is not a use.
			if id.Pos() > s.call.End() || id.Pos() < s.call.Pos() {
				used = true
			}
		}
		return !used
	})
	return used
}
