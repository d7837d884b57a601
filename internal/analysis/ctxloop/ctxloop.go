// Package ctxloop enforces the cancellation contract in packages that
// handle a context.Context: every potentially infinite `for` loop must be
// able to stop.
//
// The repository's anytime contract threads a Context through every
// long-running phase. A package is under the contract when it declares a
// struct type with a context.Context field or a function or method with a
// context.Context parameter. A `for` loop with no condition can spin
// forever, so inside such a package it must contain at least one of
//
//   - a context check: a call to .Err() or .Done() on a context.Context
//     value (selects over ctx.Done() count through the latter);
//   - a return statement, handing the decision back to the caller; or
//   - a break out of the loop.
//
// Loops with none of these never observe cancellation and are flagged.
// Conditional loops (`for cond {}`, `for i := ...`) and range loops are
// presumed bounded by their condition and left alone.
package ctxloop

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/reseedvet"
)

var Analyzer = &reseedvet.Analyzer{
	Name: "ctxloop",
	Doc:  "flags condition-less for loops that cannot observe cancellation in packages that handle a context",
	Run:  run,
}

func run(pass *reseedvet.Pass) error {
	if !carriesContext(pass) {
		return nil
	}
	for _, file := range pass.SourceFiles() {
		ast.Inspect(file, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Cond != nil {
				return true
			}
			if !canStop(pass, loop) {
				pass.Reportf(loop.For,
					"infinite for loop has no context check, return, or break; long phases must honor cancellation")
			}
			return true
		})
	}
	return nil
}

// carriesContext reports whether the package is under the cancellation
// contract: it declares a struct type with a context.Context field (the
// Options convention) or a function or method with a context.Context
// parameter (the convention that replaces it).
func carriesContext(pass *reseedvet.Pass) bool {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if takesContext(obj) {
				return true
			}
		case *types.TypeName:
			if st, ok := obj.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if reseedvet.IsContextType(st.Field(i).Type()) {
						return true
					}
				}
			}
			if named, ok := obj.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if takesContext(named.Method(i)) {
						return true
					}
				}
			}
		}
	}
	return false
}

// takesContext reports whether fn has a context.Context parameter.
func takesContext(fn *types.Func) bool {
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if reseedvet.IsContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// canStop reports whether the loop body contains an escape hatch: a
// context check, a return from the enclosing function, or a break that
// leaves this loop. Function literals inside the body are separate
// functions — their returns and loops don't count.
func canStop(pass *reseedvet.Pass, loop *ast.ForStmt) bool {
	found := false
	// depth tracks enclosing break targets between loop and the node, so
	// an unlabeled break deeper inside a nested for/select/switch is not
	// mistaken for an exit of this loop.
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if found || n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return // a different function
		case *ast.ReturnStmt:
			found = true
			return
		case *ast.BranchStmt:
			if n.Tok.String() == "break" && (n.Label != nil || depth == 0) {
				// An unlabeled break at depth 0 exits this loop; a labeled
				// break is conservatively assumed to (labels target
				// enclosing statements, and this loop encloses the break).
				found = true
			}
			return
		case *ast.CallExpr:
			if isContextCheck(pass, n) {
				found = true
				return
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
			depth++
		}
		for _, c := range children(n) {
			walk(c, depth)
		}
	}
	for _, stmt := range loop.Body.List {
		walk(stmt, 0)
	}
	return found
}

// children lists n's immediate AST children (ast.Inspect can't carry the
// per-node depth state this walk needs).
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}

// isContextCheck recognizes ctx.Err() / ctx.Done() on a context.Context
// value.
func isContextCheck(pass *reseedvet.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	if name != "Err" && name != "Done" {
		return false
	}
	if tv, ok := pass.TypesInfo.Types[sel.X]; ok {
		return reseedvet.IsContextType(tv.Type)
	}
	return false
}
