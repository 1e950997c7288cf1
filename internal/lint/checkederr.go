package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// errDropOK lists callees whose error is conventionally unactionable:
// fmt printing, and in-memory writers that are documented never to fail.
func errDropOK(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return true
	}
	if pkg.Path() == "fmt" {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedRecv(sig.Recv().Type())
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	recv := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	switch recv {
	case "bytes.Buffer", "strings.Builder":
		return true
	}
	return false
}

// checkDroppedErrors flags call statements that silently drop an error
// return. Test files are never loaded by the analyzer, so this rule covers
// exactly the non-test code. A deliberate discard must be spelled `_ = f()`
// (the discard is then visible in review) or carry an allow comment.
// Deferred calls (`defer f.Close()`) and goroutine launches are not
// flagged — both are established idioms whose error has no consumer.
func checkDroppedErrors(p *Package) []Finding {
	errType := types.Universe.Lookup("error").Type()
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			tv, ok := p.Info.Types[call]
			if !ok {
				return true
			}
			if !resultHasError(tv.Type, errType) {
				return true
			}
			if fn := calleeFunc(p, call); fn != nil && errDropOK(fn) {
				return true
			}
			out = append(out, finding(p, call,
				fmt.Sprintf("result of %s contains an error that is dropped", callName(p, call)),
				"check the error, or make the discard explicit with _ ="))
			return true
		})
	}
	return out
}

// resultHasError reports whether a call result type contains error.
func resultHasError(t types.Type, errType types.Type) bool {
	switch t := t.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errType) {
				return true
			}
		}
	default:
		return t != nil && types.Identical(t, errType)
	}
	return false
}

// calleeFunc resolves the static callee of a call, if any.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}

// callName renders a short name for the callee for messages.
func callName(p *Package, call *ast.CallExpr) string {
	if fn := calleeFunc(p, call); fn != nil {
		return fn.Name()
	}
	return "call"
}
