// Package eosutil provides the small shared vocabulary of the eoslint
// analyzers: type-aware matching of method and function calls against
// the storage engine's API surface, and the type and position queries
// several analyzers ask.
//
// Matching is by package *name* and type name rather than full import
// path, so the analyzers work unchanged against both the real engine
// packages (github.com/eosdb/eos/internal/buffer, ...) and the
// minimal stand-in packages the analysistest fixtures declare.
package eosutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"
)

// Callee returns the *types.Func called by call, or nil if the callee
// is not statically known (interface method values, func-typed
// variables, conversions).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	return typeutil.StaticCallee(info, call)
}

// ReceiverType returns the named receiver type of fn (unwrapping one
// pointer), or nil when fn is not a method.
func ReceiverType(fn *types.Func) *types.TypeName {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}

// OwnerTypeName returns the name of the named type t denotes
// (unwrapping one pointer), or "".
func OwnerTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// InTestFile reports whether pos lies in a _test.go file.  go vet
// analyzes a package's test variant too, and the invariants bind the
// engine, not its tests.
func InTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// IsMethod reports whether fn is the method pkgName.typeName.method
// (receiver may be a pointer).  pkgName is the short package name, not
// the import path.
func IsMethod(fn *types.Func, pkgName, typeName, method string) bool {
	if fn == nil || fn.Name() != method {
		return false
	}
	tn := ReceiverType(fn)
	return tn != nil && tn.Name() == typeName &&
		tn.Pkg() != nil && tn.Pkg().Name() == pkgName
}

// IsMethodCall reports whether call invokes pkgName.typeName.<one of
// methods>, returning the matched method name.
func IsMethodCall(info *types.Info, call *ast.CallExpr, pkgName, typeName string, methods ...string) (string, bool) {
	fn := Callee(info, call)
	for _, m := range methods {
		if IsMethod(fn, pkgName, typeName, m) {
			return m, true
		}
	}
	return "", false
}

// CalleeAny returns the *types.Func a call refers to, resolving
// interface method calls as well as static ones (unlike Callee, which
// returns nil for dynamic dispatch).  For an interface call the
// returned func is the interface's method declaration.
func CalleeAny(info *types.Info, call *ast.CallExpr) *types.Func {
	if fn := typeutil.StaticCallee(info, call); fn != nil {
		return fn
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	return fn
}

// namedRecv returns the defining TypeName of fn's receiver, whether
// the receiver is a (possibly pointer to) named struct or an
// interface.
func namedRecv(fn *types.Func) *types.TypeName {
	if tn := ReceiverType(fn); tn != nil {
		return tn
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	if named, ok := sig.Recv().Type().(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// IsMethodCallAny is IsMethodCall extended to interface method calls:
// it reports whether call invokes pkgName.typeName.<one of methods>
// where typeName may be a struct or an interface, returning the
// matched method name.
func IsMethodCallAny(info *types.Info, call *ast.CallExpr, pkgName, typeName string, methods ...string) (string, bool) {
	fn := CalleeAny(info, call)
	if fn == nil {
		return "", false
	}
	tn := namedRecv(fn)
	if tn == nil || tn.Name() != typeName ||
		tn.Pkg() == nil || tn.Pkg().Name() != pkgName {
		return "", false
	}
	for _, m := range methods {
		if fn.Name() == m {
			return m, true
		}
	}
	return "", false
}

// IsPkgFunc reports whether call invokes the package-level function
// pkgPath.name (full import path; package-level functions are not
// faked by fixtures, so the precise path is fine here).
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := Callee(info, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}

// ErrorType is the types.Interface of the built-in error type.
var ErrorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// IsErrorType reports whether t implements the built-in error
// interface (and is not the untyped nil).
func IsErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if basic, ok := t.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return false
	}
	return types.Implements(t, ErrorType)
}
