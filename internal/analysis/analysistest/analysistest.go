// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against expectations written in the fixtures
// themselves, mirroring golang.org/x/tools/go/analysis/analysistest:
//
//	_ = send.Send(ctx, to, msg) // want `discards the send error`
//
// A want comment holds one or more quoted regexps; each must be
// matched by a distinct diagnostic on that line, and every diagnostic
// must match a want. Fixtures live under testdata/src/<pkg>/ and are
// parsed with the same loader as real runs, so what the loader
// excludes (_test.go, generated files) is also invisible here — which
// is exactly how the exclusion rules get tested: seed a violation in
// an excluded file with no want comment and assert silence.
package analysistest

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dataflasks/internal/analysis"
)

// wantRx matches the comment payload: `want "re"` or want `re`, with
// any number of backquoted or double-quoted expectations.
var wantRx = regexp.MustCompile("^(?:/[/*] )?want ((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)")

var expRx = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

type expectation struct {
	file string
	line int
	rx   *regexp.Regexp
	hit  bool
}

// Run loads testdata/src/<pkg> for each named pkg into one program
// (so cross-package analyzers see all of them), applies a, and
// reports mismatches through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	dirs := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		dirs[p] = filepath.Join(testdata, "src", filepath.FromSlash(p))
	}
	prog, err := analysis.LoadDirs(dirs)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	if len(prog.Pkgs) == 0 {
		t.Fatalf("no fixture packages loaded from %s", testdata)
	}

	var wants []*expectation
	for _, pkg := range prog.Pkgs {
		for i, f := range pkg.Files {
			ws, err := collectWants(prog, f, pkg.Filenames[i])
			if err != nil {
				t.Fatal(err)
			}
			wants = append(wants, ws...)
		}
	}

	findings, err := analysis.Run(prog, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	for _, f := range findings {
		if !claim(wants, f) {
			t.Errorf("%s: unexpected diagnostic: %s", filepath.Base(f.Pos.Filename), f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(w.file), w.line, w.rx)
		}
	}
}

// claim marks the first unhit expectation on the finding's line whose
// regexp matches.
func claim(wants []*expectation, f analysis.Finding) bool {
	for _, w := range wants {
		if !w.hit && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.rx.MatchString(f.Message) {
			w.hit = true
			return true
		}
	}
	return false
}

// collectWants extracts every want expectation from one parsed file.
func collectWants(prog *analysis.Program, f *ast.File, filename string) ([]*expectation, error) {
	var out []*expectation
	for _, group := range f.Comments {
		for _, c := range group.List {
			text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), " "))
			m := wantRx.FindStringSubmatch("// " + text)
			if m == nil {
				if strings.HasPrefix(text, "want ") {
					return nil, fmt.Errorf("%s: malformed want comment: %s", filepath.Base(filename), c.Text)
				}
				continue
			}
			line := prog.Fset.Position(c.Pos()).Line
			for _, quoted := range expRx.FindAllString(m[1], -1) {
				var pat string
				if quoted[0] == '`' {
					pat = quoted[1 : len(quoted)-1]
				} else {
					var err error
					pat, err = strconv.Unquote(quoted)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want string %s: %v", filepath.Base(filename), line, quoted, err)
					}
				}
				rx, err := regexp.Compile(pat)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", filepath.Base(filename), line, pat, err)
				}
				out = append(out, &expectation{file: filename, line: line, rx: rx})
			}
		}
	}
	return out, nil
}
