// Package lint implements agoralint, the repo's custom static analyzer
// suite. The stock Go toolchain cannot see the contracts this codebase
// depends on — byte-identical determinism of the simulation kernel, joined
// goroutines on the serving path, and checked errors on the durability path
// — so this package walks the syntax tree of every package and enforces
// them mechanically. Nil-receiver safety of the telemetry instruments is a
// test in that package (TestNilReceiversAreInert), not an analyzer here.
//
// The suite is deliberately built on the standard library alone: the
// module carries no external dependencies and `make lint` must work
// offline. Parsing uses go/parser; type checking uses go/types with
// go/importer's source importer (typecheck.go), so every analyzer gets a
// *types.Info for its package and the suite shares one method-resolved
// call graph per run (graph.go). The testdata fixtures under
// internal/lint/testdata pin the exact behaviour.
//
// A finding can be suppressed at a specific line with an allowlist
// directive carrying a mandatory reason:
//
//	//lint:allow <analyzer> <reason>
//
// placed either on the offending line or alone on the line above it.
// Directives without a reason are themselves reported (the "directive"
// analyzer), so every exemption stays documented.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: which analyzer fired, where, and why.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// File is one parsed source file plus its directive table.
type File struct {
	Name string // base filename
	AST  *ast.File
	Test bool // *_test.go

	// allows maps a line number to the analyzer names allowed there. A
	// directive covers its own line and the next one, so it works both
	// trailing the offending statement and alone on the line above.
	allows map[int][]string
	// malformed holds positions of //lint:allow directives missing the
	// analyzer name or the reason.
	malformed []token.Pos
	// unknown holds directives whose analyzer name matches nothing in
	// the suite — a typo that would otherwise silently suppress nothing.
	unknown []unknownDirective
}

// unknownDirective is a //lint:allow naming a nonexistent analyzer.
type unknownDirective struct {
	pos  token.Pos
	name string
}

func (f *File) allowed(analyzer string, line int) bool {
	for _, a := range f.allows[line] {
		if a == analyzer {
			return true
		}
	}
	return false
}

// Package is one parsed package directory. Path is the module-relative
// slash path (e.g. "internal/sim"); analyzers scope themselves by it.
// Types and Info are filled by the type checker for packages with at
// least one production file; test files are parsed but not type-checked
// (the contracts govern production code, and test files may depend on
// test-only helpers across the package boundary).
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*File

	Types *types.Package // nil when the package has no production files
	Info  *types.Info    // nil exactly when Types is nil
}

// ProductionFiles returns the non-test files, the set the type checker
// saw and the call graph is built from.
func (p *Package) ProductionFiles() []*File {
	out := make([]*File, 0, len(p.Files))
	for _, f := range p.Files {
		if !f.Test {
			out = append(out, f)
		}
	}
	return out
}

// Module is one fully loaded, type-checked module tree: every package
// under the root sharing a single FileSet, plus the lazily built
// whole-module call graph. Analyzers that need cross-function or
// cross-package context (reachability, repo-wide field-access audits)
// run against the Module; per-file analyzers keep their narrower view.
type Module struct {
	Path string // module path from go.mod (e.g. "repro")
	Fset *token.FileSet
	Pkgs []*Package

	graph  *CallGraph
	byFile map[string]*File // fset filename -> File, for directive lookup
}

// importPathOf returns the full import path of a package in this module.
func (m *Module) importPathOf(p *Package) string {
	if p.Path == "" {
		return m.Path
	}
	return m.Path + "/" + p.Path
}

// fileAt returns the File containing the given position, or nil.
func (m *Module) fileAt(pos token.Position) *File {
	if m.byFile == nil {
		m.byFile = make(map[string]*File)
		for _, p := range m.Pkgs {
			for _, f := range p.Files {
				m.byFile[m.Fset.Position(f.AST.Pos()).Filename] = f
			}
		}
	}
	return m.byFile[pos.Filename]
}

// Graph returns the module's call graph, building it on first use so
// per-file-only runs (fixtures) never pay for it.
func (m *Module) Graph() *CallGraph {
	if m.graph == nil {
		m.graph = buildGraph(m)
	}
	return m.graph
}

// Lookup returns the named package, or nil.
func (m *Module) Lookup(path string) *Package {
	for _, p := range m.Pkgs {
		if p.Path == path {
			return p
		}
	}
	return nil
}

// ReportFunc records a finding at pos.
type ReportFunc func(pos token.Pos, format string, args ...any)

// Analyzer is one mechanical contract check. Exactly one of Run and
// RunModule is set: Run is invoked once per (package, file) pair,
// RunModule once per module with the shared call graph available.
type Analyzer struct {
	Name string
	Doc  string
	// IncludeTests runs the analyzer on *_test.go files too. Most
	// contracts govern production code only. Module-scoped analyzers
	// ignore it: they walk production ASTs directly (only those carry
	// type information).
	IncludeTests bool
	Run          func(p *Package, f *File, report ReportFunc)
	RunModule    func(m *Module, report ReportFunc)
}

// Analyzers returns the full suite, in the order findings are reported.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		wallclockAnalyzer,
		goroutineAnalyzer,
		checkederrAnalyzer,
		lockfreeAnalyzer,
		atomicsAnalyzer,
		hotallocAnalyzer,
		snapfreezeAnalyzer,
		wireallocAnalyzer,
		directiveAnalyzer,
	}
}

// Run applies every analyzer to every package of the module and returns
// the surviving findings (allow directives already applied), sorted by
// position.
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	record := func(name string, f *File, pos token.Pos, format string, args ...any) {
		position := m.Fset.Position(pos)
		if f != nil && f.allowed(name, position.Line) {
			return
		}
		diags = append(diags, Diagnostic{
			Analyzer: name,
			Pos:      position,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, p := range m.Pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			for _, f := range p.Files {
				if f.Test && !a.IncludeTests {
					continue
				}
				file, name := f, a.Name
				a.Run(p, f, func(pos token.Pos, format string, args ...any) {
					record(name, file, pos, format, args...)
				})
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		name := a.Name
		a.RunModule(m, func(pos token.Pos, format string, args ...any) {
			record(name, m.fileAt(m.Fset.Position(pos)), pos, format, args...)
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// underAny reports whether pkgPath is one of (or nested under one of) the
// given module-relative prefixes.
func underAny(pkgPath string, prefixes []string) bool {
	for _, pre := range prefixes {
		if pkgPath == pre || strings.HasPrefix(pkgPath, pre+"/") {
			return true
		}
	}
	return false
}

// fileImports maps each import's local name to its path for one file.
// Dot and blank imports are skipped: a dot import defeats selector-based
// detection entirely and does not occur in this codebase.
func fileImports(f *ast.File) map[string]string {
	m := make(map[string]string, len(f.Imports))
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "." || name == "_" {
			continue
		}
		m[name] = path
	}
	return m
}

// pkgSelector resolves a selector expression like time.Now against the
// file's import table, returning the import path and selected name.
func pkgSelector(imports map[string]string, e ast.Expr) (pkgPath, name string, ok bool) {
	sel, ok2 := e.(*ast.SelectorExpr)
	if !ok2 {
		return "", "", false
	}
	id, ok2 := sel.X.(*ast.Ident)
	if !ok2 {
		return "", "", false
	}
	path, ok2 := imports[id.Name]
	if !ok2 {
		return "", "", false
	}
	return path, sel.Sel.Name, true
}
