package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// checkMapOrder flags a replay-determinism hazard: ranging over a map while
// appending to a slice that the enclosing function returns (or names as a
// result), without sorting the slice afterwards. Go randomizes map
// iteration order, so such a slice differs run to run — poison for
// bit-reproducible harness output, image serialization, and the array
// replay path. Sorting the slice (sort.* or slices.Sort*) after the loop,
// or sorting the keys before ranging, clears the finding.
func checkMapOrder(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, mapOrderInFunc(p, fd)...)
		}
	}
	return out
}

func mapOrderInFunc(p *Package, fd *ast.FuncDecl) []Finding {
	// Objects named as results: appends into these always escape.
	results := map[types.Object]bool{}
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					results[obj] = true
				}
			}
		}
	}
	// Objects that appear inside any return statement.
	returned := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			ast.Inspect(res, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := p.Info.Uses[id]; obj != nil {
						returned[obj] = true
					}
				}
				return true
			})
		}
		return true
	})

	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		for _, obj := range appendTargets(p, rng.Body) {
			if !results[obj] && !returned[obj] {
				continue
			}
			if sortedAfter(p, fd.Body, rng, obj) {
				continue
			}
			out = append(out, finding(p, rng,
				fmt.Sprintf("map iteration appends to %s, which the function returns, without a subsequent sort", obj.Name()),
				"sort the slice after the loop (sort.Slice / slices.Sort*), or iterate over sorted keys"))
		}
		return true
	})
	return out
}

// appendTargets finds objects x in statements `x = append(x, ...)` inside
// body, where x is declared outside body.
func appendTargets(p *Package, body *ast.BlockStmt) []types.Object {
	var objs []types.Object
	seen := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "append" {
				continue
			}
			if b, ok := p.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
				continue
			}
			if i >= len(as.Lhs) {
				continue
			}
			lhs, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := p.Info.Uses[lhs]
			if obj == nil {
				obj = p.Info.Defs[lhs]
			}
			if obj == nil || seen[obj] {
				continue
			}
			// Declared inside the loop body → rebuilt per iteration, the
			// cross-iteration ordering hazard does not apply to it here.
			if body.Pos() <= obj.Pos() && obj.Pos() <= body.End() {
				continue
			}
			seen[obj] = true
			objs = append(objs, obj)
		}
		return true
	})
	return objs
}

// sortedAfter reports whether, lexically after the range statement, the
// function calls a sort.* or slices.* function with obj among its
// arguments (or obj.Sort()-style method).
func sortedAfter(p *Package, body *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeFunc(p, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			mentions := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && p.Info.Uses[id] == obj {
					mentions = true
				}
				return true
			})
			if mentions {
				found = true
			}
		}
		return true
	})
	return found
}
