package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// generatedRx is the official "generated file" convention
// (https://go.dev/s/generatedcode): a whole line matching this, before
// the package clause, excludes the file from analysis.
var generatedRx = regexp.MustCompile(`^// Code generated .* DO NOT EDIT\.$`)

// LoadPackages parses the packages matched by patterns, resolved
// against the module rooted at or above dir. Patterns follow the go
// tool's shape: "./..." walks everything under the module root,
// "./x/..." walks a subtree, "./x" names one directory. Test files
// (_test.go), generated files, and testdata/vendor/hidden directories
// are excluded — the invariants flaskscheck enforces are about shipped
// code, and fixtures under testdata must never be findings.
func LoadPackages(dir string, patterns []string) (*Program, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	for _, pat := range patterns {
		expanded, err := expandPattern(root, pat)
		if err != nil {
			return nil, err
		}
		for _, d := range expanded {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	sort.Strings(dirs)

	prog := &Program{Fset: token.NewFileSet()}
	for _, d := range dirs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			return nil, err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkgs, err := parseDir(prog.Fset, d, importPath)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkgs...)
	}
	return prog, nil
}

// LoadDirs parses explicit directories outside any module — the
// analysistest fixture path. Keys are import paths, values
// directories.
func LoadDirs(pkgs map[string]string) (*Program, error) {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	prog := &Program{Fset: token.NewFileSet()}
	for _, path := range paths {
		parsed, err := parseDir(prog.Fset, pkgs[path], path)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, parsed...)
	}
	return prog, nil
}

// findModule walks up from dir to the enclosing go.mod and returns
// (module root, module path).
func findModule(dir string) (string, string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod at or above %s", abs)
		}
		d = parent
	}
}

// expandPattern resolves one go-tool-style pattern to directories.
func expandPattern(root, pat string) ([]string, error) {
	recursive := false
	if pat == "..." || strings.HasSuffix(pat, "/...") {
		recursive = true
		pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
	}
	if pat == "" || pat == "." {
		pat = root
	} else if !filepath.IsAbs(pat) {
		pat = filepath.Join(root, pat)
	}
	if !recursive {
		return []string{pat}, nil
	}
	var dirs []string
	err := filepath.WalkDir(pat, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != pat && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// parseDir parses a directory's analyzable files, grouped into one
// Package per package clause (a dir can legally hold e.g. "main" next
// to nothing else, but fixtures are free-form). Directories with no
// analyzable Go files yield no packages.
func parseDir(fset *token.FileSet, dir, importPath string) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*Package)
	var order []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		filename := filepath.Join(dir, name)
		src, err := os.ReadFile(filename)
		if err != nil {
			return nil, err
		}
		if isGenerated(src) {
			continue
		}
		f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		pkg := byName[f.Name.Name]
		if pkg == nil {
			pkg = &Package{
				Name:        f.Name.Name,
				Path:        importPath,
				Dir:         dir,
				annotations: make(map[string]map[int][]string),
			}
			byName[f.Name.Name] = pkg
			order = append(order, f.Name.Name)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, filename)
		collectAnnotations(fset, f, pkg.annotations)
	}
	sort.Strings(order)
	pkgs := make([]*Package, 0, len(order))
	for _, n := range order {
		pkgs = append(pkgs, byName[n])
	}
	return pkgs, nil
}

// isGenerated applies the generated-code convention to raw source:
// the marker line must appear before the package clause.
func isGenerated(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimRight(line, "\r")
		if strings.HasPrefix(trimmed, "package ") {
			return false
		}
		if generatedRx.MatchString(trimmed) {
			return true
		}
	}
	return false
}

// Inspect walks every file of the pass's package in depth-first
// order, calling fn exactly like ast.Inspect. Shared by the passes so
// their traversal idiom stays uniform.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}
