// Package errwrap enforces the error taxonomy inside the engine packages:
// every error created on an engine path must be classifiable by
// pgss/internal/pgsserrors.
//
// The campaign runner decides retry-vs-fail with errors.Is against the
// taxonomy sentinels; a bare errors.New or fmt.Errorf without %w inside an
// engine produces a Kind()=="other" error that defeats that
// classification. Allowed forms:
//
//   - fmt.Errorf with %w (propagates or attaches a classified cause),
//   - pgsserrors helpers (Invalidf, Misalignedf, Corruptf, ...),
//   - an error expression passed directly to a pgsserrors function
//     (e.g. Transient(errors.New(...))).
//
// Package-level sentinels are checked too: one built with errors.New stays
// unclassified however it is wrapped, so engine sentinels use a pgsserrors
// helper. Only pgsserrors itself, which defines the taxonomy, is exempt.
package errwrap

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pgss/internal/analysis"
)

const taxonomyPath = "pgss/internal/pgsserrors"

var Analyzer = &analysis.Analyzer{
	Name: "errwrap",
	Doc: "engine errors must wrap a pgsserrors sentinel (or another error " +
		"via %w), never bare errors.New/fmt.Errorf",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsEngine(pass.Pkg.Path()) || pass.Pkg.Path() == taxonomyPath {
		return nil
	}
	for _, f := range pass.Files {
		checkFile(pass, f)
	}
	return nil
}

func checkFile(pass *analysis.Pass, f *ast.File) {
	// Arguments handed directly to a pgsserrors function are classified by
	// that call and need no taxonomy of their own.
	blessed := map[ast.Node]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isPkgCall(pass, call, taxonomyPath, "") {
			return true
		}
		for _, arg := range call.Args {
			blessed[arg] = true
		}
		return true
	})

	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || blessed[call] {
			return true
		}
		switch {
		case isPkgCall(pass, call, "errors", "New"):
			pass.Reportf(call.Pos(),
				"bare errors.New in engine package %s defeats taxonomy classification; "+
					"wrap a pgsserrors sentinel (%%w) or use a helper like pgsserrors.Invalidf",
				pass.Pkg.Path())
		case isPkgCall(pass, call, "fmt", "Errorf") && !formatWraps(call):
			if fix := wrapVerbFix(pass, call); fix != nil {
				pass.ReportFix(call.Pos(),
					"replace the error argument's verb with %w",
					fix,
					"fmt.Errorf without %%w in engine package %s creates an unclassifiable error; "+
						"wrap a pgsserrors sentinel or the causing error",
					pass.Pkg.Path())
				return true
			}
			pass.Reportf(call.Pos(),
				"fmt.Errorf without %%w in engine package %s creates an unclassifiable error; "+
					"wrap a pgsserrors sentinel or the causing error",
				pass.Pkg.Path())
		}
		return true
	})
}

// isPkgCall reports whether call invokes pkgPath.name (any function of
// pkgPath when name is empty).
func isPkgCall(pass *analysis.Pass, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return false
	}
	return name == "" || sel.Sel.Name == name
}

// wrapVerbFix builds the %v->%w suggested fix for a fmt.Errorf call
// whose format is a single string literal containing a %v or %s verb
// that formats an error-typed argument: switching that verb to %w
// preserves the message byte-for-byte while making the error
// classifiable. Returns nil when the shape is anything subtler
// (concatenated formats, flags/widths, no error argument, several
// error arguments where the choice is ambiguous).
func wrapVerbFix(pass *analysis.Pass, call *ast.CallExpr) []analysis.TextEdit {
	if len(call.Args) < 2 {
		return nil
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return nil
	}
	text := lit.Value // quoted source text; verb bytes are identical inside
	// Scan verbs left to right, pairing them with arguments.
	errType := types.Universe.Lookup("error").Type()
	argIdx := 0
	verbAt := -1 // byte offset of the % of the verb to rewrite
	for i := 0; i < len(text)-1; i++ {
		if text[i] != '%' {
			continue
		}
		verb := text[i+1]
		if verb == '%' {
			i++
			continue
		}
		if !(verb >= 'a' && verb <= 'z' || verb >= 'A' && verb <= 'Z') {
			// Flags, widths or indexed verbs: bail out rather than
			// mis-pair arguments.
			return nil
		}
		if argIdx+1 >= len(call.Args) {
			return nil
		}
		arg := call.Args[argIdx+1]
		argIdx++
		if verb != 'v' && verb != 's' {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || !types.Implements(at, errType.Underlying().(*types.Interface)) {
			continue
		}
		if verbAt >= 0 {
			return nil // two error-typed verbs: ambiguous, leave it to a human
		}
		verbAt = i
	}
	if verbAt < 0 {
		return nil
	}
	pos := lit.Pos() + token.Pos(verbAt) + 1 // the verb letter after '%'
	return []analysis.TextEdit{{Pos: pos, End: pos + 1, NewText: "w"}}
}

// formatWraps reports whether the first argument of a fmt.Errorf call
// contains %w in any literal part (handles "a: %w" and "%w: "+format
// concatenations).
func formatWraps(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	found := false
	ast.Inspect(call.Args[0], func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && strings.Contains(lit.Value, "%w") {
			found = true
		}
		return !found
	})
	return found
}
