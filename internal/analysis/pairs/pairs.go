// Package pairs defines an Analyzer that enforces the engine's
// acquire/release disciplines through one table-driven pairing engine.
// It generalizes the original pinpair checker: every resource class is
// a spec naming its acquire calls, its release calls, how the resource
// token is identified at each site, and which paths must release.
//
// The table covers the disciplines the storage engine depends on:
//
//	pin      buffer.Pool.Fix/FixWrite/FixNew → Unpin/Discard (all paths)
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
// site: a diagnostic means some path reaches a function exit holding
// the resource.  The error check guarding a fallible acquire is exempt
// (a failed acquire acquires nothing): a test of its error variable
// reached on a path that has not written the variable since the
// acquire.  A deferred release covers every exit.
//
// The check follows resources through helpers, within the package and
// across packages, by one summary per function (ResFact) computed to a
// fixed point bottom-up over the ssa call graph:
//
//   - Releases: parameters whose resource the function releases.  A
//     call to it releases the matching argument.  A helper that
//     releases only on some of its own paths is still a releaser at call
//     sites; the helper's own body is where the partial release shows.
//   - Acquires: parameters whose resource the function acquires and
//     never releases (lockPool(p) leaves p.mu held).
//   - Returns: a freshly acquired resource carried by the first result
//     (openTxn(s) hands its caller a transaction to finish).
//
// In a function declaration, every call to a function with an Acquires
// or Returns entry is an acquire site too, checked by the same path
// engine and reported with the acquiring call chain.  Context
// sensitivity is by propagation: when such a site's token is the
// enclosing function's own parameter, or a variable it returns, the
// enclosing function inherits the entry and each of its callers is
// checked against its own exits.  A returned resource that is
// discarded outright is reported at the call.
//
// Test files are exempt: tests hold pins, latches, and transactions
// across assertions deliberately.
package pairs

import (
	"go/ast"
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

Each resource class (buffer pins, ranked latches, transactions, epoch
guards, buddy allocations, file volumes) pairs an acquire call with a
release call.  A path from an acquire to a function exit that misses
the release leaks the resource: frames stay unevictable, latches
deadlock their next acquirer, transactions hold their locks forever,
allocations leak pages.  Function summaries (releases,
acquires-and-holds, returns-acquired) propagate bottom-up over the call
graph and across packages, so helpers that release a parameter and
wrappers that acquire for their caller are checked at every call.`

// Analyzer is the pairs analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "pairs",
	Doc:       doc,
	Requires:  []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer, ssa.Analyzer, ignore.Analyzer},
	Run:       run,
	FactTypes: []analysis.Fact{new(ResFact)},
}

// keyFrom says where a site's resource token is read.
type keyFrom int

const (
	// keyArg0 keys the resource by the call's first argument (the page
	// of Fix(pg) and Unpin(pg)).
	keyArg0 keyFrom = iota
	// keyRecv keys the resource by the method receiver (the t of
	// t.Commit()).
	keyRecv
	// keyResult0 keys the resource by the variable the call's first
	// result is assigned to (the t of t, err := s.Begin()).
	keyResult0
)

// matcher selects method calls by package name, receiver type name
// (struct or interface), and method names.  A matcher with an empty
// typ instead selects package-level functions of pkg named in methods
// (the acquire side of constructor→Close disciplines).
type matcher struct {
	pkg, typ string
	methods  []string
}

// spec describes one acquire/release discipline.
type spec struct {
	// Name labels the resource in diagnostics and summaries ("pin",
	// "latch", "txn", "alloc").
	Name string

	// Acquire and Release match the paired calls.  Unused for the
	// mutex kind.
	Acquire, Release []matcher
	// AcquireKey and ReleaseKey locate the resource token at each site.
	AcquireKey, ReleaseKey keyFrom

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

// specs is the engine's pairing table.
var specs = []*spec{
	{
		Name:       "pin",
		Acquire:    []matcher{{"buffer", "Pool", []string{"Fix", "FixWrite", "FixNew"}}},
		Release:    []matcher{{"buffer", "Pool", []string{"Unpin", "Discard"}}},
		AcquireKey: keyArg0,
		ReleaseKey: keyArg0,
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
		AcquireKey: keyResult0,
		ReleaseKey: keyRecv,
		ErrGuarded: true,
		Hint:       "commit or abort on every path; an unfinished transaction holds its locks forever",
	},
	{
		Name:          "epoch",
		Acquire:       []matcher{{"txn", "EpochManager", []string{"Enter"}}},
		Release:       []matcher{{"txn", "EpochGuard", []string{"Exit"}}},
		AcquireKey:    keyResult0,
		ReleaseKey:    keyRecv,
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
		AcquireKey:     keyResult0,
		ReleaseKey:     keyArg0,
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
		AcquireKey:     keyResult0,
		ReleaseKey:     keyRecv,
		ErrGuarded:     true,
		ErrorPathsOnly: true,
		TransferOnUse:  true,
		Hint:           "close the volume (or hand it off) before returning the error; a leaked descriptor pins the page file",
	},
}

// specNamed returns the table entry called name.
func specNamed(name string) *spec {
	for _, sp := range specs {
		if sp.Name == name {
			return sp
		}
	}
	return nil
}

// ResFact is a function's resource summary, exported so that callers
// in other packages are checked against it.
type ResFact struct {
	// Releases lists parameters whose resource the function releases.
	Releases []Res
	// Acquires lists parameters whose resource the function acquires
	// and leaves held when it returns.
	Acquires []Res
	// Returns lists specs whose resource the function's first result
	// carries, freshly acquired.
	Returns []Res
}

// Res is one resource of a summary: the spec name, the parameter index
// (-1 for the receiver; unused in Returns), a token suffix for mutex
// resources (".mu" when the function locks or unlocks param.mu), and,
// for Acquires and Returns, the call chain below the function that
// performs the acquisition.
type Res struct {
	Spec   string
	Param  int
	Suffix string
	Chain  []string
}

// AFact marks ResFact as an analysis fact.
func (*ResFact) AFact() {}

type checker struct {
	pass *analysis.Pass
	pr   *ssa.Program
	sums map[*ssa.Func]*ResFact
}

// site is one acquire call under check.
type site struct {
	spec     *spec
	call     *ast.CallExpr
	method   string       // the acquire method of a literal site
	token    string       // expression string identifying the resource
	tokenObj types.Object // variable object for result-keyed tokens
	errVar   types.Object // error variable guarding the acquire
	// chain is the acquiring call chain of a site derived from a
	// callee's summary; nil for a literal acquire call.
	chain []string
}

func run(pass *analysis.Pass) (interface{}, error) {
	pr := pass.ResultOf[ssa.Analyzer].(*ssa.Program)
	c := &checker{pass: pass, pr: pr, sums: make(map[*ssa.Func]*ResFact, len(pr.Funcs))}
	// Releases feed the Acquires computation (a resource released in
	// the body is not held on return), so each SCC converges them first.
	pr.Solve(func(f *ssa.Func) { c.sums[f] = new(ResFact) }, c.updateReleases, c.updateAcquires)
	for f, sum := range c.sums {
		if len(sum.Releases) > 0 || len(sum.Acquires) > 0 || len(sum.Returns) > 0 {
			pass.ExportObjectFact(f.Obj, sum)
		}
	}

	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	ig := ignore.For(pass)
	nodeFilter := []ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}
	insp.Preorder(nodeFilter, func(n ast.Node) {
		if eosutil.InTestFile(pass, n.Pos()) {
			return
		}
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				c.checkBody(ig, fn.Body, cfgs.FuncDecl(fn), fn)
			}
		case *ast.FuncLit:
			c.checkBody(ig, fn.Body, cfgs.FuncLit(fn), nil)
		}
	})
	return nil, nil
}

// summaryOf returns the summary of call's callee — the in-package one
// (possibly still converging) or the fact its own package exported —
// and the callee, or nil.
func (c *checker) summaryOf(call *ast.CallExpr) (*ResFact, *types.Func) {
	fn := eosutil.CalleeAny(c.pass.TypesInfo, call)
	if fn == nil {
		return nil, nil
	}
	if sum := ssa.Summary(c.pr, c.sums, fn); sum != nil {
		return sum, fn
	}
	return nil, nil
}

// relKey identifies one released resource within a body.
type relKey struct{ spec, token string }

// releases lists what call releases: as one of a spec's release calls,
// or through its callee's Releases summary.
func (c *checker) releases(call *ast.CallExpr) []relKey {
	var out []relKey
	for _, sp := range specs {
		if tok, ok := releaseToken(c.pass, sp, call); ok {
			out = append(out, relKey{sp.Name, tok})
		}
	}
	if sum, _ := c.summaryOf(call); sum != nil {
		for _, r := range sum.Releases {
			if tok, ok := argToken(call, r); ok {
				out = append(out, relKey{r.Spec, tok})
			}
		}
	}
	return out
}

// releasedIn collects every resource released anywhere in body.
// Deferred releases count; releases inside non-deferred function
// literals do not (the literal may never run here).
func (c *checker) releasedIn(body *ast.BlockStmt) map[relKey]bool {
	out := make(map[relKey]bool)
	scan := func(call *ast.CallExpr) {
		for _, k := range c.releases(call) {
			out[k] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
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

// addRes appends r to *list unless the list already names the same
// resource, reporting whether it did.
func addRes(list *[]Res, r Res) bool {
	for _, have := range *list {
		if have.Spec == r.Spec && have.Param == r.Param && have.Suffix == r.Suffix {
			return false
		}
	}
	*list = append(*list, r)
	return true
}

func (c *checker) updateReleases(f *ssa.Func) bool {
	params := paramIndex(f.Decl)
	changed := false
	for k := range c.releasedIn(f.Decl.Body) {
		base, suffix := splitSuffix(specNamed(k.spec), k.token)
		if i, ok := params[base]; ok && addRes(&c.sums[f].Releases, Res{Spec: k.spec, Param: i, Suffix: suffix}) {
			changed = true
		}
	}
	return changed
}

// updateAcquires derives f's Acquires and Returns entries from its
// acquire sites, literal and derived.  A site whose token is released
// somewhere in the body is balanced and contributes nothing; a
// parameter-keyed one leaves the parameter held on return; a
// result-keyed one whose result is returned makes f a producer.
func (c *checker) updateAcquires(f *ssa.Func) bool {
	body := f.Decl.Body
	params := paramIndex(f.Decl)
	released := c.releasedIn(body)
	returned := returnedObjs(c.pass, body)
	sum := c.sums[f]
	changed := false
	for _, s := range c.collectSites(body, true) {
		rel := released[relKey{s.spec.Name, s.token}]
		if s.spec.AcquireKey == keyResult0 {
			// f produces the resource when it returns the call, or the
			// unreleased variable holding its result.  A TransferOnUse
			// token used before it is returned was handed off (the rule
			// the path engine applies).
			produced := isReturnedCall(body, s.call)
			if s.tokenObj != nil {
				produced = !rel && returned[s.tokenObj] &&
					!(s.spec.TransferOnUse && usedOutsideReturn(c.pass, body, s.tokenObj, s.call))
			}
			if produced && addRes(&sum.Returns, Res{Spec: s.spec.Name, Chain: s.chain}) {
				changed = true
			}
			continue
		}
		base, suffix := splitSuffix(s.spec, s.token)
		if i, ok := params[base]; ok && !rel &&
			addRes(&sum.Acquires, Res{Spec: s.spec.Name, Param: i, Suffix: suffix, Chain: s.chain}) {
			changed = true
		}
	}
	return changed
}

// checkBody checks every acquire site of one function body.  decl is
// nil for a function literal, whose derived sites are not checked.
func (c *checker) checkBody(ig *ignore.Reporter, body *ast.BlockStmt, g *cfg.CFG, decl *ast.FuncDecl) {
	if g == nil {
		return
	}
	for _, s := range c.collectSites(body, decl != nil) {
		if s.spec.AcquireKey == keyResult0 && s.tokenObj == nil {
			// No variable holds the result: a literal site has no token
			// to track; a derived one passes to the caller when returned
			// and is lost otherwise.
			if s.chain != nil && !isReturnedCall(body, s.call) {
				ig.Report(s.call.Pos(),
					"interprocedural %s leak: %s returns an acquired %s that is discarded (%s)",
					s.spec.Name, strings.Join(s.chain, " → "), s.spec.Name, s.spec.Hint)
			}
			continue
		}
		if s.chain != nil && inherited(c.pass, decl, s) {
			continue
		}
		// A release deferred before the acquire (defer b.Wait() ahead of
		// the submit loop) covers every exit but sits on no CFG path
		// from the acquire; recognize it lexically.
		if c.deferredReleaseBefore(body, s) || !c.leaks(g, s) {
			continue
		}
		switch {
		case s.chain != nil && s.tokenObj != nil:
			ig.Report(s.call.Pos(),
				"interprocedural %s leak: %q acquired by call chain %s can reach a function exit without release (%s)",
				s.spec.Name, s.token, strings.Join(s.chain, " → "), s.spec.Hint)
		case s.chain != nil:
			ig.Report(s.call.Pos(),
				"interprocedural %s leak: call chain %s acquires %s and no subsequent path releases it before exit (%s)",
				s.spec.Name, strings.Join(s.chain, " → "), s.token, s.spec.Hint)
		case s.spec.ErrorPathsOnly:
			ig.Report(s.call.Pos(),
				"%s leak: the resource from %s(...) in %q is not released on an error-return path (%s)",
				s.spec.Name, s.method, s.token, s.spec.Hint)
		default:
			ig.Report(s.call.Pos(),
				"%s leak: %s(%s) can reach a function exit without %s(%s) (%s)",
				s.spec.Name, s.method, s.token, releaseNames(s.spec), s.token, s.spec.Hint)
		}
	}
}

// inherited reports whether derived site s is for decl's callers to
// check: its token is one of decl's parameters, or a variable decl
// returns.  decl's own summary carries the site up.
func inherited(pass *analysis.Pass, decl *ast.FuncDecl, s *site) bool {
	if s.tokenObj != nil {
		return returnedObjs(pass, decl.Body)[s.tokenObj]
	}
	base, _ := splitSuffix(s.spec, s.token)
	_, isParam := paramIndex(decl)[base]
	return isParam
}

// deferredReleaseBefore reports whether body registers a deferred
// release of s's resource lexically before the acquire call (and not
// inside a nested function literal).  Such a defer runs at every
// function exit, so the acquire cannot leak.
func (c *checker) deferredReleaseBefore(body *ast.BlockStmt, s *site) bool {
	covered := false
	ast.Inspect(body, func(n ast.Node) bool {
		if covered {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if n.Pos() < s.call.Pos() && c.nodeEffect(n, s) == effectRelease {
				covered = true
			}
			return false
		}
		return true
	})
	return covered
}

func releaseNames(sp *spec) string {
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
// inside a nested function literal: the spec's own acquire calls and,
// when derived is set, calls to functions whose summary acquires or
// returns a resource.  A result-keyed site whose result is not bound to
// a variable keeps a nil tokenObj.
func (c *checker) collectSites(body *ast.BlockStmt, derived bool) []*site {
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
			if method, token, ok := acquireCall(c.pass, sp, call); ok {
				sites = append(sites, &site{spec: sp, call: call, method: method, token: token})
			}
		}
		if !derived {
			return true
		}
		sum, fn := c.summaryOf(call)
		if sum == nil {
			return true
		}
		label := ssa.FuncLabel(c.pass.Pkg, fn)
		for _, r := range sum.Acquires {
			if tok, ok := argToken(call, r); ok {
				sites = append(sites, &site{spec: specNamed(r.Spec), call: call, token: tok, chain: ssa.Chain(label, r.Chain)})
			}
		}
		for _, r := range sum.Returns {
			sites = append(sites, &site{spec: specNamed(r.Spec), call: call, chain: ssa.Chain(label, r.Chain)})
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
					if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil && eosutil.IsErrorType(obj.Type()) {
						s.errVar = obj
					}
				}
			}
			if s.spec.AcquireKey == keyResult0 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					s.token = id.Name
					s.tokenObj = c.pass.TypesInfo.ObjectOf(id)
				}
			}
		}
		return true
	})
	return sites
}

// acquireCall reports whether call is one of sp's acquire calls.  The
// returned token identifies the resource for arg0-, receiver-, and
// mutex-keyed specs; result-keyed specs return an empty token (the
// caller resolves it from the enclosing assignment).
func acquireCall(pass *analysis.Pass, sp *spec, call *ast.CallExpr) (method, token string, ok bool) {
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
	case keyArg0:
		if len(call.Args) < 1 {
			return "", "", false
		}
		return m, types.ExprString(call.Args[0]), true
	case keyRecv:
		sel, isSel := call.Fun.(*ast.SelectorExpr)
		if !isSel {
			return "", "", false
		}
		return m, types.ExprString(sel.X), true
	}
	return m, "", true
}

// isErrGuard reports whether b is the then-branch of an `if` testing
// s's error variable: while the variable still holds the acquire's
// error, that branch runs only when nothing was acquired.
func isErrGuard(pass *analysis.Pass, b *cfg.Block, s *site) bool {
	ifs, ok := b.Stmt.(*ast.IfStmt)
	return ok && s.errVar != nil && b.Kind == cfg.KindIfThen && condTestsVar(pass, ifs.Cond, s.errVar)
}

// writes reports whether CFG node n assigns obj.
func writes(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if as, ok := m.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					found = true
				}
			}
		}
		return !found
	})
	return found
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
// method, and the owner token ("p.mu").
func mutexEvent(pass *analysis.Pass, sp *spec, call *ast.CallExpr) (key, method, token string, ok bool) {
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
	owner := eosutil.OwnerTypeName(selection.Recv())
	if owner == "" {
		return "", "", "", false
	}
	key = owner + "." + field.Name()
	if !sp.MutexFields[key] {
		return "", "", "", false
	}
	return key, method, types.ExprString(fieldSel), true
}

// releaseToken reports whether call is a release call of sp, and the
// token it releases.
func releaseToken(pass *analysis.Pass, sp *spec, call *ast.CallExpr) (string, bool) {
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
	case keyArg0:
		if len(call.Args) < 1 {
			return "", false
		}
		return types.ExprString(call.Args[0]), true
	case keyRecv:
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		return types.ExprString(sel.X), true
	}
	return "", false
}

// argToken resolves the token a summary entry names at a concrete call
// site: the matching argument (or receiver) plus the entry's suffix.
func argToken(call *ast.CallExpr, r Res) (string, bool) {
	if r.Param == -1 {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		return types.ExprString(sel.X) + r.Suffix, true
	}
	if r.Param >= len(call.Args) {
		return "", false
	}
	return types.ExprString(call.Args[r.Param]) + r.Suffix, true
}

// paramIndex maps a function's parameter (and receiver) names to their
// summary indices: receiver -1, parameters 0..n-1.
func paramIndex(decl *ast.FuncDecl) map[string]int {
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
	return params
}

// splitSuffix splits a mutex token ("p.mu") into its base and field
// suffix; other tokens pass through whole.
func splitSuffix(sp *spec, token string) (base, suffix string) {
	if sp.MutexFields != nil {
		if i := strings.LastIndex(token, "."); i > 0 {
			return token[:i], token[i:]
		}
	}
	return token, ""
}

// returnedObjs collects the objects of identifiers appearing in return
// statements of body (outside function literals).
func returnedObjs(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if id, ok := res.(*ast.Ident); ok {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
						out[obj] = true
					}
				}
			}
		}
		return true
	})
	return out
}

// usedOutsideReturn reports whether tokenObj is used after the acquire
// call anywhere but a return statement.
func usedOutsideReturn(pass *analysis.Pass, body *ast.BlockStmt, tokenObj types.Object, call *ast.CallExpr) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			return false
		case *ast.Ident:
			if n.Pos() > call.End() && pass.TypesInfo.ObjectOf(n) == tokenObj {
				used = true
			}
		}
		return !used
	})
	return used
}

// isReturnedCall reports whether call appears directly as a return
// result (`return openTxn(s)`).
func isReturnedCall(body *ast.BlockStmt, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, res := range ret.Results {
				if res == call {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// leaks reports whether some path from s's acquire to a function exit
// misses the release.  The walk tracks whether the path has written
// the acquire's error variable: until it has, a test of the variable
// is the acquire's own error check; after, a reused err belongs to
// another call and its tests exempt nothing.
func (c *checker) leaks(g *cfg.CFG, s *site) bool {
	start, startIdx := findNode(g, s.call)
	if start == nil {
		return false // CFG elided the call (dead code)
	}
	type state struct {
		b       *cfg.Block
		written bool
	}
	seen := make(map[state]bool)
	var visit func(b *cfg.Block, from int, written bool) bool
	visit = func(b *cfg.Block, from int, written bool) bool {
		if from == 0 {
			if b == start || seen[state{b, written}] {
				return false // looped back to the acquire block, or walked
			}
			seen[state{b, written}] = true
			if !written && isErrGuard(c.pass, b, s) {
				return false
			}
		}
		for i := from; i < len(b.Nodes); i++ {
			switch c.nodeEffect(b.Nodes[i], s) {
			case effectRelease, effectTransfer:
				return false
			}
			written = written || s.errVar != nil && writes(c.pass, b.Nodes[i], s.errVar)
		}
		if len(b.Succs) == 0 {
			if b.Kind == cfg.KindUnreachable {
				return false
			}
			if s.spec.ErrorPathsOnly {
				return isErrorReturn(c.pass, b)
			}
			return true
		}
		for _, succ := range b.Succs {
			if visit(succ, 0, written) {
				return true
			}
		}
		return false
	}
	return visit(start, startIdx+1, false)
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
// (direct, deferred, or through a releaser's summary), an ownership
// transfer (TransferOnUse specs), or nothing.
func (c *checker) nodeEffect(n ast.Node, s *site) effect {
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
			if c.callReleases(call, s) {
				released = true
				return false
			}
			return true
		})
	}
	switch n := n.(type) {
	case *ast.DeferStmt:
		if c.callReleases(n.Call, s) {
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
			s.spec.TransferOnUse && s.tokenObj != nil && usesToken(c.pass, n, s) {
			return effectTransfer
		}
		return effectNone
	}
}

// callReleases reports whether call releases s's resource.
func (c *checker) callReleases(call *ast.CallExpr, s *site) bool {
	for _, k := range c.releases(call) {
		if k.spec == s.spec.Name && k.token == s.token {
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
