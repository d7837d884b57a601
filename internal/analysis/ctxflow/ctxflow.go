// Package ctxflow enforces context threading below the API surface: a
// function that receives a context.Context must flow that context — not a
// fresh one — into the work it does.
//
// Two findings:
//
//   - a ctx-receiving function calls context.Background or context.TODO.
//     Entry points (main, tests, handlers at the top of the stack) create
//     root contexts; anything already handed a context that conjures a
//     second one breaks the cancellation chain the caller set up — the
//     solve deadline and drain paths in internal/server rely on that
//     chain reaching the engine.
//
//   - a ctx-receiving function never touches its context parameter at
//     all, yet calls something that accepts one — either directly (a
//     context.Context parameter) or through an options struct with a
//     context-typed field. The parameter suggests cancellation flows
//     through; it silently doesn't.
//
// The repository's sanctioned nil-normalization idiom is exempt: a
// function whose body nil-checks a context-typed expression, e.g.
//
//	if ctx == nil { ctx = context.Background() }
//
// or the return form (if ctx == nil { return context.Background() }), is
// allowed its Background call — substituting Background for an absent
// context is exactly what those helpers are for.
package ctxflow

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/reseedvet"
)

var Analyzer = &reseedvet.Analyzer{
	Name: "ctxflow",
	Doc:  "a function receiving a context.Context must thread it, not conjure context.Background/TODO or drop it",
	Run:  run,
}

func run(pass *reseedvet.Pass) error {
	for _, file := range pass.SourceFiles() {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ctxParams := contextParams(pass, fn)
			if len(ctxParams) == 0 {
				continue
			}
			checkFunc(pass, fn, ctxParams)
		}
	}
	return nil
}

// contextParams returns the type objects of fn's context.Context
// parameters. Blank parameters have no object and are excluded — writing
// `_ context.Context` is an explicit, visible drop.
func contextParams(pass *reseedvet.Pass, fn *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && obj != nil &&
				reseedvet.IsContextType(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

func checkFunc(pass *reseedvet.Pass, fn *ast.FuncDecl, ctxParams []*types.Var) {
	normalizer := nilChecksContext(pass, fn.Body)

	used := make(map[*types.Var]bool)
	var capableWitness *types.Func
	conjured := false

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj, ok := pass.TypesInfo.Uses[n].(*types.Var); ok {
				for _, p := range ctxParams {
					if obj == p {
						used[p] = true
					}
				}
			}
		case *ast.CallExpr:
			callee := staticCallee(pass, n)
			if callee == nil {
				return true
			}
			if isContextRoot(callee) {
				if !normalizer {
					conjured = true
					pass.Reportf(n.Pos(),
						"%s already receives a context but calls context.%s; thread the context parameter instead (nil-normalization with an explicit nil check is exempt)",
						fn.Name.Name, callee.Name())
				}
				return true
			}
			if capableWitness == nil && acceptsContext(callee) {
				capableWitness = callee
			}
		}
		return true
	})

	// A conjure finding already explains why the parameter never flows;
	// piling the dropped-parameter finding on top would say it twice.
	if capableWitness == nil || conjured {
		return
	}
	for _, p := range ctxParams {
		if !used[p] {
			pass.Reportf(p.Pos(),
				"context parameter %s is never threaded: %s calls %s, which accepts a context",
				p.Name(), fn.Name.Name, qualifiedName(capableWitness))
		}
	}
}

// isContextRoot reports whether fn is context.Background or context.TODO.
func isContextRoot(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil || pkg.Path() != "context" {
		return false
	}
	return fn.Name() == "Background" || fn.Name() == "TODO"
}

// acceptsContext reports whether calling fn can carry a context: a
// context.Context parameter, or a parameter of (pointer-to-)struct type
// with a context-typed field — the options-struct idiom Engine.Solve and
// Run use.
func acceptsContext(fn *types.Func) bool {
	// The context package's own constructors (WithCancel, WithTimeout…)
	// take a parent context by definition; using one with a non-parameter
	// parent is the Background/TODO finding's job, not this one's.
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "context" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if reseedvet.IsContextType(t) {
			return true
		}
		if st, ok := derefStruct(t); ok && hasContextField(st) {
			return true
		}
	}
	return false
}

func derefStruct(t types.Type) (*types.Struct, bool) {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

func hasContextField(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if reseedvet.IsContextType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// nilChecksContext reports whether body contains an if condition comparing
// a context-typed expression against nil — the marker of the sanctioned
// normalization idiom, in either its assignment or return form.
func nilChecksContext(pass *reseedvet.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok || found {
			return !found
		}
		ast.Inspect(ifStmt.Cond, func(c ast.Node) bool {
			bin, ok := c.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			for _, side := range []ast.Expr{bin.X, bin.Y} {
				if id, ok := side.(*ast.Ident); ok && id.Name == "nil" {
					other := bin.Y
					if side == bin.Y {
						other = bin.X
					}
					if tv, ok := pass.TypesInfo.Types[other]; ok && tv.Type != nil &&
						reseedvet.IsContextType(tv.Type) {
						found = true
					}
				}
			}
			return !found
		})
		return !found
	})
	return found
}

// staticCallee resolves a call to the *types.Func it statically invokes,
// nil for builtins, conversions and dynamic calls.
func staticCallee(pass *reseedvet.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func qualifiedName(fn *types.Func) string {
	if path := reseedvet.ObjectPath(fn); path != "" && fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + path
	}
	return fn.Name()
}
