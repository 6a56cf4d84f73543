// Package wiretable guards the wire contract: every protocol message
// lives in the declarative wire.Messages table with a stable, unique,
// non-zero kind ID, a binary field codec, and a pinned golden frame.
// Kind IDs are the on-the-wire compatibility surface — a duplicated or
// renumbered kind silently corrupts mixed-version clusters, and a
// message missing from the table cannot be encoded at all.
//
// On the package declaring `var Messages = []Spec{...}` the pass
// checks each spec for: a non-zero literal Kind, unique across the
// table; a Name; enc and dec codec functions; a New constructor whose
// returned type agrees with Name; and a frame for Name in
// testdata/frames.golden (regenerate with `go test -run Golden
// -update ./internal/wire`).
//
// Across protocol packages it additionally resolves the message
// argument of Send(ctx, to, msg) calls — composite literals, directly
// or through a local variable — and flags types that are not
// registered in the table. The resolution is deliberately
// conservative: a message it cannot trace to a literal is not a
// finding.
package wiretable

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dataflasks/internal/analysis"
)

// GoldenFile is the table-relative path of the pinned frames.
const GoldenFile = "testdata/frames.golden"

// sendScope lists the package names whose Send calls are checked
// against the table. Transport internals send transport.Envelope
// frames, not protocol messages, so they are out of scope.
var sendScope = map[string]bool{
	"pss":         true,
	"slicing":     true,
	"aggregate":   true,
	"antientropy": true,
	"gossip":      true,
	"core":        true,
	"client":      true,
	"dht":         true,
	"bootstrap":   true,
}

// Analyzer is the wiretable pass.
var Analyzer = &analysis.Analyzer{
	Name: "wiretable",
	Doc:  "every message has a stable kind, a binary codec and a golden frame",
	Run:  run,
}

// spec is one parsed Messages element.
type spec struct {
	pos     token.Pos
	kind    int
	kindSet bool
	name    string
	hasEnc  bool
	hasDec  bool
	newType string // "pkg.Type" from the New constructor, or ""
}

func run(pass *analysis.Pass) error {
	if table, pos := findTable(pass.Pkg); table != nil {
		checkTable(pass, table, pos)
	}
	if sendScope[pass.Pkg.Name] {
		checkSends(pass)
	}
	return nil
}

// findTable locates `var Messages = [...]{...}` in pkg and parses its
// specs. The second result is the table's position (for file-level
// diagnostics).
func findTable(pkg *analysis.Package) ([]spec, token.Pos) {
	for _, f := range pkg.Files {
		imports := analysis.Imports(f)
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.VAR {
				continue
			}
			for _, s := range gen.Specs {
				vs, ok := s.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "Messages" || len(vs.Values) != 1 {
					continue
				}
				lit, ok := vs.Values[0].(*ast.CompositeLit)
				if !ok {
					continue
				}
				var specs []spec
				for _, elt := range lit.Elts {
					if el, ok := elt.(*ast.CompositeLit); ok {
						specs = append(specs, parseSpec(pkg, imports, el))
					}
				}
				return specs, vs.Pos()
			}
		}
	}
	return nil, token.NoPos
}

func parseSpec(pkg *analysis.Package, imports map[string]string, lit *ast.CompositeLit) spec {
	s := spec{pos: lit.Pos()}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Kind":
			if bl, ok := kv.Value.(*ast.BasicLit); ok && bl.Kind == token.INT {
				if v, err := strconv.Atoi(bl.Value); err == nil {
					s.kind, s.kindSet = v, true
				}
			}
		case "Name":
			if bl, ok := kv.Value.(*ast.BasicLit); ok && bl.Kind == token.STRING {
				s.name, _ = strconv.Unquote(bl.Value)
			}
		case "New":
			s.newType = constructedType(pkg, imports, kv.Value)
		case "enc":
			s.hasEnc = true
		case "dec":
			s.hasDec = true
		}
	}
	return s
}

// constructedType extracts "pkg.Type" from a New constructor literal:
// func() interface{} { return &pss.ShuffleRequest{} } (or new(T)).
func constructedType(pkg *analysis.Package, imports map[string]string, v ast.Expr) string {
	fn, ok := v.(*ast.FuncLit)
	if !ok || len(fn.Body.List) != 1 {
		return ""
	}
	ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return ""
	}
	switch r := ret.Results[0].(type) {
	case *ast.UnaryExpr:
		if r.Op == token.AND {
			if cl, ok := r.X.(*ast.CompositeLit); ok {
				return typeName(pkg, imports, cl.Type)
			}
		}
	case *ast.CallExpr:
		if id, ok := r.Fun.(*ast.Ident); ok && id.Name == "new" && len(r.Args) == 1 {
			return typeName(pkg, imports, r.Args[0])
		}
	}
	return ""
}

// typeName renders a type expression as the table's "pkg.Type" naming.
func typeName(pkg *analysis.Package, imports map[string]string, t ast.Expr) string {
	switch t := t.(type) {
	case *ast.Ident:
		return pkg.Name + "." + t.Name
	case *ast.SelectorExpr:
		qual, ok := t.X.(*ast.Ident)
		if !ok {
			return ""
		}
		path := imports[qual.Name]
		if path == "" {
			return ""
		}
		short := path
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			short = path[i+1:]
		}
		return short + "." + t.Sel.Name
	}
	return ""
}

func checkTable(pass *analysis.Pass, specs []spec, tablePos token.Pos) {
	golden, goldenErr := readGolden(filepath.Join(pass.Pkg.Dir, filepath.FromSlash(GoldenFile)))
	if goldenErr != nil {
		pass.Reportf(tablePos, "wire.Messages has no readable golden frame file at %s: %v", GoldenFile, goldenErr)
	}
	byKind := map[int]string{}
	for _, s := range specs {
		label := s.name
		if label == "" {
			label = "spec"
			pass.Reportf(s.pos, "wire message spec has no Name")
		}
		switch {
		case !s.kindSet:
			pass.Reportf(s.pos, "%s has no literal Kind; kind IDs must be explicit integers", label)
		case s.kind == 0:
			pass.Reportf(s.pos, "%s has kind 0, the reserved invalid kind", label)
		case byKind[s.kind] != "":
			pass.Reportf(s.pos, "%s reuses kind %d, already taken by %s; kind IDs are wire contract", label, s.kind, byKind[s.kind])
		default:
			byKind[s.kind] = label
		}
		if !s.hasEnc || !s.hasDec {
			pass.Reportf(s.pos, "%s has no binary field codec (needs both enc and dec)", label)
		}
		if s.name != "" && s.newType != "" && s.name != s.newType {
			pass.Reportf(s.pos, "%s constructs %s; Name and New disagree", label, s.newType)
		}
		if s.name != "" && goldenErr == nil && !golden[s.name] {
			pass.Reportf(s.pos, "%s has no golden frame in %s (regenerate: go test -run Golden -update)", label, GoldenFile)
		}
	}
}

// readGolden parses the golden frame file's "<name>: <hex>" lines.
func readGolden(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.IndexByte(line, ':'); i > 0 {
			names[strings.TrimSpace(line[:i])] = true
		}
	}
	return names, nil
}

// registeredNames collects the table's message names from whichever
// loaded package declares it.
func registeredNames(prog *analysis.Program) map[string]bool {
	for _, pkg := range prog.Pkgs {
		if table, _ := findTable(pkg); table != nil {
			names := make(map[string]bool, len(table))
			for _, s := range table {
				if s.name != "" {
					names[s.name] = true
				}
			}
			return names
		}
	}
	return nil
}

// checkSends flags Send(ctx, to, msg) calls whose msg resolves to a
// composite literal of a type absent from the table.
func checkSends(pass *analysis.Pass) {
	registered := registeredNames(pass.Program)
	if registered == nil {
		return // table not loaded (partial run); nothing to check against
	}
	for _, f := range pass.Pkg.Files {
		imports := analysis.Imports(f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			locals := localComposites(fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || analysis.MethodName(call) != "Send" || len(call.Args) != 3 {
					return true
				}
				t := resolveMsgType(pass.Pkg, imports, locals, call.Args[2])
				if t != "" && !registered[t] {
					pass.Reportf(call.Args[2].Pos(), "message %s sent over the fabric but not registered in wire.Messages", t)
				}
				return true
			})
		}
	}
}

// localComposites maps identifiers assigned a composite literal
// (directly or by address) anywhere in fn — a lexical approximation
// that is exact for the "build message, then send it" idiom.
func localComposites(fn *ast.FuncDecl) map[string]ast.Expr {
	m := map[string]ast.Expr{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			switch rhs := assign.Rhs[i].(type) {
			case *ast.CompositeLit:
				m[id.Name] = rhs.Type
			case *ast.UnaryExpr:
				if cl, ok := rhs.X.(*ast.CompositeLit); ok && rhs.Op == token.AND {
					m[id.Name] = cl.Type
				}
			}
		}
		return true
	})
	return m
}

// resolveMsgType names the message type of a Send's third argument,
// or "" when it cannot be traced to a composite literal.
func resolveMsgType(pkg *analysis.Package, imports map[string]string, locals map[string]ast.Expr, arg ast.Expr) string {
	switch arg := arg.(type) {
	case *ast.UnaryExpr:
		if cl, ok := arg.X.(*ast.CompositeLit); ok && arg.Op == token.AND {
			return typeName(pkg, imports, cl.Type)
		}
	case *ast.CompositeLit:
		return typeName(pkg, imports, arg.Type)
	case *ast.Ident:
		if t, ok := locals[arg.Name]; ok {
			return typeName(pkg, imports, t)
		}
	}
	return ""
}
