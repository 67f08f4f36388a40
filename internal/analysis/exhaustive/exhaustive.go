// Package exhaustive checks that switches over the tree's registries
// cover every member, so adding a signature channel, a kernel mode or an
// error kind can never silently fall through to a stale default.
// Coverage is opt-in — the ISA opcode tables have hundreds of
// intentionally partial switches — through two routes:
//
//   - Typed enums. A named type is registered either in the builtin
//     table below (bbv.Channel) or by a `//pgss:enum` comment on its
//     declaration; every switch anywhere over that type must then name
//     every package-scope constant of the type.
//   - String registries. A switch over plain strings opts in with
//     `//pgss:enum errorkind` on the switch line (or the line above);
//     membership comes from the registry table here, which is
//     sync-tested against the live source (pgsserrors.Kinds).
//
// Campaign techniques need no registry: callers look them up in one
// table (internal/experiments) instead of switching over their names.
//
// A default clause does not excuse missing members: the point is that
// growth of the registry forces a decision at every registered switch.
// Findings carry a suggested fix inserting panic-stub case clauses for
// the missing members, so `pgss-lint -fix` leaves exactly the decision
// to make.
package exhaustive

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"pgss/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "exhaustive",
	Doc: "registered enum switches (channel, kernel mode, error-kind) must " +
		"cover every registry member; default does not excuse",
	Run: run,
}

// builtinEnumTypes are named types whose switches are checked
// everywhere without a local directive.
var builtinEnumTypes = map[string]bool{
	"pgss/internal/bbv.Channel": true,
}

// stringRegistries back the `//pgss:enum <name>` switch directives.
// Kept as literals so the analyzer stays dependency-free; sync_test.go
// pins them to the live registries.
var stringRegistries = map[string][]string{
	"errorkind": {
		"invalid-config",
		"misaligned-window",
		"budget-exceeded",
		"cache-corrupt",
		"run-panicked",
		"interrupted",
		"infeasible",
		"io",
		"worker-stalled",
		"other",
	},
}

// Registry exposes a string registry for the sync tests.
func Registry(name string) []string {
	return append([]string(nil), stringRegistries[name]...)
}

var enumDirectiveRe = regexp.MustCompile(`^//\s*pgss:enum(?:\s+([a-zA-Z0-9_-]+))?`)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		directives := scanDirectives(pass.Fset, f)
		localEnums := localEnumTypes(pass, f, directives)
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			line := pass.Fset.Position(sw.Pos()).Line
			if reg, ok := directiveAt(directives, line); ok {
				checkStringSwitch(pass, f, sw, reg)
				return true
			}
			checkTypedSwitch(pass, f, sw, localEnums)
			return true
		})
	}
	return nil
}

// scanDirectives maps line number -> directive argument ("" for a bare
// //pgss:enum) for one file.
func scanDirectives(fset *token.FileSet, f *ast.File) map[int]string {
	out := map[int]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := enumDirectiveRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			out[fset.Position(c.Pos()).Line] = m[1]
		}
	}
	return out
}

// directiveAt finds a directive on the given line (trailing style) or
// the line above (comment-above style).
func directiveAt(directives map[int]string, line int) (string, bool) {
	if d, ok := directives[line]; ok {
		return d, true
	}
	if d, ok := directives[line-1]; ok {
		return d, true
	}
	return "", false
}

// localEnumTypes collects named types in this file whose declarations
// carry a bare //pgss:enum directive.
func localEnumTypes(pass *analysis.Pass, f *ast.File, directives map[int]string) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			line := pass.Fset.Position(ts.Pos()).Line
			if _, ok := directiveAt(directives, line); !ok {
				// A directive on the `type (` line covers a single-spec
				// declaration too.
				gdLine := pass.Fset.Position(gd.Pos()).Line
				if _, ok := directiveAt(directives, gdLine); !ok {
					continue
				}
			}
			if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
				out[tn] = true
			}
		}
	}
	return out
}

// member is one registry entry: its display/case spelling and the
// constant value that identifies coverage.
type member struct {
	caseText string // text to write in an inserted case clause
	display  string // name used in the finding message
	value    string // canonical constant value for matching
}

// checkTypedSwitch verifies switches over registered named enum types.
func checkTypedSwitch(pass *analysis.Pass, f *ast.File, sw *ast.SwitchStmt, local map[*types.TypeName]bool) {
	tagType := pass.TypesInfo.TypeOf(sw.Tag)
	named, ok := tagType.(*types.Named)
	if !ok {
		return
	}
	tn := named.Obj()
	if tn.Pkg() == nil {
		return
	}
	full := tn.Pkg().Path() + "." + tn.Name()
	if !builtinEnumTypes[full] && !local[tn] {
		return
	}
	members := enumMembers(pass, f, tn, named)
	if len(members) == 0 {
		return
	}
	missing := missingMembers(pass, sw, members)
	report(pass, f, sw, tn.Name(), missing)
}

// enumMembers enumerates the package-scope constants of the named type,
// in declaration order, spelled for use inside pass's package.
func enumMembers(pass *analysis.Pass, f *ast.File, tn *types.TypeName, named *types.Named) []member {
	scope := tn.Pkg().Scope()
	qualifier, importable := "", true
	if tn.Pkg() != pass.Pkg {
		qualifier = importName(f, tn.Pkg().Path(), tn.Pkg().Name())
		if qualifier == "" {
			// The enum's package is not plainly imported here (absent or
			// dot-imported): report, but a generated case spelling could
			// not compile, so attach no fix.
			importable = false
		}
	}
	var consts []*types.Const
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), named) {
			consts = append(consts, c)
		}
	}
	sort.Slice(consts, func(i, j int) bool { return consts[i].Pos() < consts[j].Pos() })
	var out []member
	for _, c := range consts {
		caseText := c.Name()
		if qualifier != "" {
			caseText = qualifier + "." + c.Name()
		}
		if !importable {
			caseText = ""
		}
		out = append(out, member{
			caseText: caseText,
			display:  c.Name(),
			value:    c.Val().ExactString(),
		})
	}
	return out
}

// importName resolves how pkgPath is named inside file f; "" when not
// imported (or dot-imported, where a qualified fix would not compile).
func importName(f *ast.File, pkgPath, defaultName string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != pkgPath {
			continue
		}
		if imp.Name == nil {
			return defaultName
		}
		if imp.Name.Name == "." || imp.Name.Name == "_" {
			return ""
		}
		return imp.Name.Name
	}
	return ""
}

// checkStringSwitch verifies a directive-annotated switch against a
// string registry.
func checkStringSwitch(pass *analysis.Pass, f *ast.File, sw *ast.SwitchStmt, registry string) {
	names, ok := stringRegistries[registry]
	if !ok {
		pass.Reportf(sw.Pos(), "unknown enum registry %q in //pgss:enum directive (want %s)",
			registry, strings.Join(registryNames(), ", "))
		return
	}
	tagType := pass.TypesInfo.TypeOf(sw.Tag)
	if !isStringType(tagType) {
		pass.Reportf(sw.Pos(), "//pgss:enum %s directive on a switch whose tag is not a string", registry)
		return
	}
	var members []member
	for _, n := range names {
		members = append(members, member{
			caseText: strconv.Quote(n),
			display:  strconv.Quote(n),
			value:    constant.MakeString(n).ExactString(),
		})
	}
	missing := missingMembers(pass, sw, members)
	report(pass, f, sw, registry+" registry", missing)
}

// missingMembers returns registry members whose value no case clause
// covers.
func missingMembers(pass *analysis.Pass, sw *ast.SwitchStmt, members []member) []member {
	covered := map[string]bool{}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
				covered[tv.Value.ExactString()] = true
			}
		}
	}
	var missing []member
	for _, m := range members {
		if !covered[m.value] {
			missing = append(missing, m)
		}
	}
	return missing
}

// report emits the finding (with an insert-missing-cases fix when the
// spellings compile in this file) for a non-empty missing set.
func report(pass *analysis.Pass, f *ast.File, sw *ast.SwitchStmt, what string, missing []member) {
	if len(missing) == 0 {
		return
	}
	var displays, cases []string
	fixable := true
	for _, m := range missing {
		displays = append(displays, m.display)
		if m.caseText == "" {
			fixable = false
		}
		cases = append(cases, m.caseText)
	}
	msg := "switch over %s does not cover %s: a registry member added later would fall through silently (default does not excuse)"
	if !fixable {
		pass.Reportf(sw.Pos(), msg, what, strings.Join(displays, ", "))
		return
	}
	// Insert one panic-stub clause per missing member, before the
	// default clause if there is one, else at the end of the body. An
	// empty clause would silently absorb the member (and can break the
	// enclosing function's terminating-statement analysis); a panic
	// compiles everywhere and leaves exactly the decision to make.
	// gofmt in the fix engine normalises the indentation.
	insertAt := sw.Body.Rbrace
	for _, stmt := range sw.Body.List {
		if cc, ok := stmt.(*ast.CaseClause); ok && len(cc.List) == 0 {
			insertAt = cc.Pos()
			break
		}
	}
	var text strings.Builder
	for i, c := range cases {
		text.WriteString("case " + c + ":\n")
		text.WriteString("panic(" + strconv.Quote("exhaustive: unhandled "+displays[i]) + ")\n")
	}
	pass.ReportFix(sw.Pos(),
		"insert panic stubs for the missing members",
		[]analysis.TextEdit{{Pos: insertAt, End: insertAt, NewText: text.String()}},
		msg, what, strings.Join(displays, ", "))
}

func registryNames() []string {
	var names []string
	for n := range stringRegistries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
