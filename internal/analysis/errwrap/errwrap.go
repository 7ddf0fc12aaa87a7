// Package errwrap defines an Analyzer that enforces the engine's error
// idiom: errors that cross a call boundary are wrapped with %w, and
// sentinel errors are matched with errors.Is, never ==.
//
// The engine wraps rich context around its sentinels at every layer
// (fmt.Errorf("%w: page %d", ErrNotPinned, pg)); a caller comparing
// the result with == silently stops matching the moment any layer adds
// context, and an fmt.Errorf that formats an error with %v instead of
// %w severs the chain that errors.Is/As walks.  Test files are
// exempt: tests may compare exact error values deliberately.
package errwrap

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"github.com/eosdb/eos/internal/analysis/eosutil"
	"github.com/eosdb/eos/internal/analysis/ignore"
)

const doc = `check that errors are wrapped with %w and matched with errors.Is

fmt.Errorf must use %w (not %v or %s) for error operands so the cause
chain stays walkable, and error values must be compared with errors.Is
(not == or !=) so wrapped sentinels still match.`

// Analyzer is the errwrap analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "errwrap",
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer, ignore.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ig := ignore.For(pass)

	nodeFilter := []ast.Node{(*ast.CallExpr)(nil), (*ast.BinaryExpr)(nil)}
	insp.Preorder(nodeFilter, func(n ast.Node) {
		if eosutil.InTestFile(pass, n.Pos()) {
			return
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			checkErrorf(pass, ig, n)
		case *ast.BinaryExpr:
			checkCompare(pass, ig, n)
		}
	})
	return nil, nil
}

// checkErrorf reports fmt.Errorf calls that format an error operand
// without a matching %w verb.
func checkErrorf(pass *analysis.Pass, ig *ignore.Reporter, call *ast.CallExpr) {
	if !eosutil.IsPkgFunc(pass.TypesInfo, call, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	wrapped := strings.Count(lit.Value, "%w")
	errArgs := 0
	for _, arg := range call.Args[1:] {
		if tv, ok := pass.TypesInfo.Types[arg]; ok && eosutil.IsErrorType(tv.Type) {
			errArgs++
		}
	}
	if errArgs > wrapped {
		ig.Report(call.Pos(),
			"error formatted without %%w (%d error operand(s), %d %%w verb(s)); use %%w so callers can errors.Is/As through the wrap",
			errArgs, wrapped)
	}
}

// checkCompare reports == / != between two error values.
func checkCompare(pass *analysis.Pass, ig *ignore.Reporter, bin *ast.BinaryExpr) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	xt, xok := pass.TypesInfo.Types[bin.X]
	yt, yok := pass.TypesInfo.Types[bin.Y]
	if !xok || !yok {
		return
	}
	if !eosutil.IsErrorType(xt.Type) || !eosutil.IsErrorType(yt.Type) {
		return
	}
	verb := "errors.Is(err, target)"
	if bin.Op == token.NEQ {
		verb = "!errors.Is(err, target)"
	}
	ig.Report(bin.OpPos,
		"error compared with %s; use %s so wrapped sentinels still match",
		bin.Op, verb)
}
