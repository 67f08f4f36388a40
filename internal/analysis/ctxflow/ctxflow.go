// Package ctxflow enforces context threading:
//
//  1. Inside engine packages, context.Background()/TODO() never appears:
//     a fresh Background silently detaches the callee from cancellation
//     and budgets. Engine entry points take the caller's context.
//  2. In any analyzed package, a function holding a context.Context must
//     not call a callee's context-free variant when a <Name>Context
//     sibling exists: that drops the caller's deadline on the floor.
package ctxflow

import (
	"go/ast"
	"go/types"

	"pgss/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "thread context.Context: no context.Background below the facade, " +
		"no calling F when FContext exists and ctx is in hand",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if analysis.IsEngine(pass.Pkg.Path()) {
				checkBackground(pass, fn)
			}
			if hasCtxParam(pass, fn) {
				checkDroppedCtx(pass, fn)
			}
		}
	}
	return nil
}

func checkBackground(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
		if !ok || pn.Imported().Path() != "context" {
			return true
		}
		if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
			pass.Reportf(call.Pos(),
				"context.%s below the facade detaches %s from cancellation and budgets; "+
					"accept a ctx parameter",
				sel.Sel.Name, fn.Name.Name)
		}
		return true
	})
}

func checkDroppedCtx(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass, call)
		if callee == nil || hasCtxSig(sigOf(callee)) {
			return true
		}
		recv := sigOf(callee).Recv()
		var recvT types.Type
		if recv != nil {
			recvT = recv.Type()
		}
		if v := ctxVariant(callee.Pkg(), recvT, callee.Name()); v != nil {
			pass.Reportf(call.Pos(),
				"call to %s drops the caller's ctx; use %s so cancellation propagates",
				callee.Name(), v.Name())
		}
		return true
	})
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), nil for builtins, conversions and calls
// through function-typed variables.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// ctxVariant looks up name+"Context" in pkg (or on recv's type when recv
// is non-nil) and returns it when it exists and takes a context.
func ctxVariant(pkg *types.Package, recv types.Type, name string) *types.Func {
	if pkg == nil {
		return nil
	}
	want := name + "Context"
	if recv != nil {
		obj, _, _ := types.LookupFieldOrMethod(recv, true, pkg, want)
		if f, ok := obj.(*types.Func); ok && hasCtxSig(sigOf(f)) {
			return f
		}
		return nil
	}
	if f, ok := pkg.Scope().Lookup(want).(*types.Func); ok && hasCtxSig(sigOf(f)) {
		return f
	}
	return nil
}

func hasCtxParam(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	return obj != nil && hasCtxSig(sigOf(obj))
}

func hasCtxSig(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isCtxType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

func isCtxType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// sigOf returns f's signature (types.Func.Signature() itself needs go1.23,
// and go.mod declares 1.22).
func sigOf(f *types.Func) *types.Signature {
	return f.Type().(*types.Signature)
}
