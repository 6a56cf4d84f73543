// Package analysis is a small, dependency-free analysis framework in
// the shape of golang.org/x/tools/go/analysis: an Analyzer inspects
// the parsed syntax of one package through a Pass and reports
// Diagnostics. The repo's invariant checkers under
// internal/analysis/passes build on it and cmd/flaskscheck drives them
// as a multichecker.
//
// The framework is deliberately syntactic — packages are parsed, not
// type-checked — so it runs offline with no module downloads. Analyzers
// resolve package qualifiers through each file's import table (see
// Imports) instead of go/types, which is exact for the selector-based
// patterns the checkers care about (context.Background, time.Sleep,
// mutex method sets).
//
// Deliberate violations are waived in source with a marker comment on
// the offending line or the line above:
//
//	//flasks:fire-and-forget <rationale>
//
// Each analyzer documents which marker it honors; Pass.Annotated does
// the lookup.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// An Analyzer names one invariant check. Run is invoked once per
// loaded package with a fresh Pass.
type Analyzer struct {
	// Name identifies the analyzer in findings and on the
	// flaskscheck command line.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects pass.Pkg and reports violations via pass.Report
	// or pass.Reportf. A returned error aborts the whole run (reserve
	// it for broken inputs, not findings).
	Run func(pass *Pass) error
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Package is the parsed syntax of one directory's package.
type Package struct {
	// Name is the package clause name ("core", "main", ...).
	Name string
	// Path is the import path ("dataflasks/internal/core"); fixture
	// packages loaded outside a module use their directory name.
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Files holds one parsed file per non-test, non-generated .go
	// file, parallel to Filenames.
	Files []*ast.File
	// Filenames holds the absolute path of each entry in Files.
	Filenames []string

	// annotations maps filename → line → flasks marker names present
	// on that line ("fire-and-forget" for //flasks:fire-and-forget).
	annotations map[string]map[int][]string
}

// A Program is a set of packages loaded together, sharing one FileSet.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	diags []Diagnostic
}

// Report records a violation.
func (p *Pass) Report(d Diagnostic) { p.diags = append(p.diags, d) }

// Reportf records a violation with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Annotated reports whether a //flasks:name marker waives the line
// holding pos. The marker counts on the same line (trailing comment)
// or the line directly above (own-line comment).
func (p *Pass) Annotated(pos token.Pos, name string) bool {
	position := p.Fset.Position(pos)
	byLine := p.Pkg.annotations[position.Filename]
	for _, line := range [2]int{position.Line, position.Line - 1} {
		for _, marker := range byLine[line] {
			if marker == name {
				return true
			}
		}
	}
	return false
}

// A Finding is one diagnostic resolved to a position, ready to print.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the finding the way go vet does, with the analyzer
// name tagged: "path:line:col: [analyzer] message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Run applies every analyzer to every package of prog and returns the
// findings sorted by file, line and column.
func Run(prog *Program, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, a := range analyzers {
		for _, pkg := range prog.Pkgs {
			pass := &Pass{Analyzer: a, Fset: prog.Fset, Pkg: pkg}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range pass.diags {
				out = append(out, Finding{Analyzer: a.Name, Pos: prog.Fset.Position(d.Pos), Message: d.Message})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
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
	return out, nil
}

// Imports returns a file's import table: local qualifier → import
// path. Unnamed imports map under the path's last element, following
// the universal Go convention that the package name matches it (true
// for the stdlib and for every package in this module). Blank and dot
// imports are skipped — the checkers' selector patterns cannot see
// through them anyway.
func Imports(f *ast.File) map[string]string {
	m := make(map[string]string, len(f.Imports))
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		local := path
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			local = path[i+1:]
		}
		if imp.Name != nil {
			local = imp.Name.Name
		}
		if local == "_" || local == "." {
			continue
		}
		m[local] = path
	}
	return m
}

// IsPkgFunc reports whether call is qualified-call pkgPath.name —
// e.g. IsPkgFunc(imports, call, "context", "Background") matches
// context.Background() under whatever local name the file imports
// "context" as.
func IsPkgFunc(imports map[string]string, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && imports[id.Name] == pkgPath
}

// MethodName returns the bare method name of a call through a
// selector ("Send" for x.y.Send(...)), or "" for plain function
// calls. Qualified package calls look identical syntactically, so
// callers that must exclude them check IsPkgFunc first or inspect the
// receiver expression.
func MethodName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// flasksMarker extracts the marker name from one comment line, or "".
// "//flasks:fire-and-forget — acks drive retries" → "fire-and-forget".
func flasksMarker(text string) string {
	rest, ok := strings.CutPrefix(strings.TrimSpace(text), "//flasks:")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// collectAnnotations indexes every //flasks: marker in f by line.
func collectAnnotations(fset *token.FileSet, f *ast.File, into map[string]map[int][]string) {
	for _, group := range f.Comments {
		for _, c := range group.List {
			marker := flasksMarker(c.Text)
			if marker == "" {
				continue
			}
			pos := fset.Position(c.Pos())
			byLine := into[pos.Filename]
			if byLine == nil {
				byLine = make(map[int][]string)
				into[pos.Filename] = byLine
			}
			byLine[pos.Line] = append(byLine[pos.Line], marker)
		}
	}
}
