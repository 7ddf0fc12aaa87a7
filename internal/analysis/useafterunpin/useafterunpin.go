// Package useafterunpin defines an Analyzer that reports uses of a
// pinned page image after the pin is released.
//
// buffer.Pool.Fix, FixWrite and FixNew return the frame's byte slice directly —
// a pointer into the buffer pool, valid only while the frame's pin
// count holds it in memory.  After Unpin or Discard the frame may be
// evicted, reused for another page, or concurrently rewritten by the
// next fixer; reading through the old slice returns another page's
// bytes and writing through it corrupts an unrelated page.  This is
// the static form of the torn-page class of bugs: the dynamic variant
// (write-back racing a mutator) was fixed by hand once, and this
// analyzer keeps the pattern out of the tree.
//
// The analyzer tracks the slice variable assigned from each Fix/FixWrite/FixNew
// call through the function's control-flow graph.  From every
// non-deferred Unpin/Discard of the same page expression, any
// reachable use of the variable is reported: a read or write, a
// return, or a capture by a function literal (a goroutine or closure
// may run after the pin is gone even when it is created before).
// Reassigning the variable — including re-fixing the page into it —
// ends tracking on that path.
//
// The analysis is lexical about the page identity (the same expression
// text must be passed to Fix and Unpin, as in the engine's code) and
// intra-procedural: a helper that unpins for you hides the release
// and is not treated as one.  Deferred releases run at function exit,
// so body uses after a defer statement are fine.
package useafterunpin

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"github.com/eosdb/eos/internal/analysis/eosutil"
	"github.com/eosdb/eos/internal/analysis/ignore"
)

const doc = `report uses of a pinned page image after Unpin/Discard

Fix, FixWrite and FixNew return a slice aliasing the buffer frame; once the page
is unpinned the frame may be evicted or handed to another page, so any
later read, write, return, or closure capture of the slice touches
memory the pool no longer guarantees.  Tracking is per control-flow
path: a use is reported only when a release reaches it.`

// Analyzer is the useafterunpin analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "useafterunpin",
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer, ignore.Analyzer},
	Run:      run,
}

// pinSite is one Fix/FixNew call whose slice result is tracked.
type pinSite struct {
	call   *ast.CallExpr
	method string
	img    types.Object // the slice variable
	page   string       // expression string of the page argument
}

func run(pass *analysis.Pass) (interface{}, error) {
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	ig := ignore.For(pass)

	nodeFilter := []ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}
	insp.Preorder(nodeFilter, func(n ast.Node) {
		if eosutil.InTestFile(pass, n.Pos()) {
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
		for _, s := range collectSites(pass, body) {
			checkSite(pass, ig, g, s)
		}
	})
	return nil, nil
}

// collectSites finds the Fix/FixNew assignments lexically inside body
// (not inside nested function literals) whose slice result is named.
func collectSites(pass *analysis.Pass, body *ast.BlockStmt) []*pinSite {
	var sites []*pinSite
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) < 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) < 1 {
			return true
		}
		method, ok := eosutil.IsMethodCall(pass.TypesInfo, call, "buffer", "Pool", "Fix", "FixWrite", "FixNew")
		if !ok {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			return true
		}
		sites = append(sites, &pinSite{
			call:   call,
			method: method,
			img:    obj,
			page:   types.ExprString(call.Args[0]),
		})
		return true
	})
	return sites
}

// checkSite walks forward from every release of s's page and reports
// the first reachable use of the image variable on each path.
func checkSite(pass *analysis.Pass, ig *ignore.Reporter, g *cfg.CFG, s *pinSite) {
	reported := make(map[token]bool)
	for _, b := range g.Blocks {
		if !b.Live {
			continue
		}
		for i, n := range b.Nodes {
			rel, ok := releaseOf(pass, n, s)
			if !ok {
				continue
			}
			seen := make(map[*cfg.Block]bool)
			walkAfter(pass, ig, b, i+1, s, rel, seen, reported)
		}
	}
}

type token struct{ pos, rel int }

// releaseOf reports whether CFG node n non-deferredly releases s's
// page, returning the release method name.
func releaseOf(pass *analysis.Pass, n ast.Node, s *pinSite) (string, bool) {
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		return "", false
	}
	var rel string
	ast.Inspect(n, func(m ast.Node) bool {
		if rel != "" {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok || len(call.Args) < 1 {
			return true
		}
		method, ok := eosutil.IsMethodCall(pass.TypesInfo, call, "buffer", "Pool", "Unpin", "Discard")
		if ok && types.ExprString(call.Args[0]) == s.page {
			rel = method
			return false
		}
		return true
	})
	return rel, rel != ""
}

// walkAfter scans nodes from (b, from) onward; the first use of the
// image on each path is reported and the path is cut (a reassignment
// also cuts it).
func walkAfter(pass *analysis.Pass, ig *ignore.Reporter, b *cfg.Block, from int, s *pinSite, rel string, seen map[*cfg.Block]bool, reported map[token]bool) {
	for i := from; i < len(b.Nodes); i++ {
		switch use, kind := useIn(pass, b.Nodes[i], s); {
		case use != nil:
			key := token{int(use.Pos()), int(s.call.Pos())}
			if !reported[key] {
				reported[key] = true
				ig.Report(use.Pos(),
					"page image %q %s after %s(%s); the unpinned frame may be evicted or rewritten",
					s.img.Name(), kind, rel, s.page)
			}
			return
		case kind == killed:
			return
		}
	}
	for _, succ := range b.Succs {
		if seen[succ] {
			continue
		}
		seen[succ] = true
		walkAfter(pass, ig, succ, 0, s, rel, seen, reported)
	}
}

const (
	used     = "used"
	returned = "returned"
	captured = "captured by a function literal"
	killed   = "\x00killed"
)

// useIn looks for a use of s.img inside CFG node n.  It returns the
// using identifier and how it is used, or kind == killed when n
// reassigns the variable (ending the image's association with the
// frame).
func useIn(pass *analysis.Pass, n ast.Node, s *pinSite) (*ast.Ident, string) {
	// Reassignment check first: a plain `img = ...` or a fresh
	// `img, err := pool.Fix(...)` ends tracking, but any use of img
	// elsewhere in the same statement (RHS, or an index expression on
	// the LHS) is still a use.
	reassigned := false
	var use *ast.Ident
	kind := used
	mark := func(root ast.Node, k string) {
		ast.Inspect(root, func(m ast.Node) bool {
			if use != nil {
				return false
			}
			if lit, ok := m.(*ast.FuncLit); ok {
				// A capture: the literal may outlive the pin.
				ast.Inspect(lit.Body, func(in ast.Node) bool {
					if use != nil {
						return false
					}
					if id, ok := in.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == s.img {
						use, kind = id, captured
					}
					return use == nil
				})
				return false
			}
			if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == s.img {
				use, kind = id, k
			}
			return use == nil
		})
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if pass.TypesInfo.ObjectOf(id) == s.img {
					reassigned = true
				}
				continue
			}
			mark(lhs, used) // img[0] = x is a write through the image
		}
		for _, rhs := range n.Rhs {
			mark(rhs, used)
		}
	case *ast.ReturnStmt:
		mark(n, returned)
	default:
		mark(n, used)
	}
	if use != nil {
		return use, kind
	}
	if reassigned {
		return nil, killed
	}
	return nil, ""
}
