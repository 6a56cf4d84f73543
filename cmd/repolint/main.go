// Command repolint enforces the repository's documentation hygiene in
// CI. It has three checks, selected by what each argument is:
//
//   - a .md file: every relative link and anchor in it must resolve —
//     linked files exist inside the repository, and #fragments match a
//     heading (GitHub slug rules) of the target document. External
//     URLs and links escaping the repository root (GitHub-web paths
//     like ../../actions/...) are skipped. And every "-exp <name>" in
//     it must name a row of lab.Experiments (or "all"), so prose cannot
//     keep pointing at an experiment that was renamed or retired.
//   - a directory: every Go package under it (recursively, skipping
//     testdata and hidden directories) must carry a package doc
//     comment on at least one of its non-test files.
//   - a directory holding both README.md and cmd/flasksd/main.go (the
//     repository root): the flags flasksd registers and the rows of
//     README's "flasksd flags" table must be the same set.
//
// Usage:
//
//	repolint README.md ROADMAP.md docs/ARCHITECTURE.md internal cmd
//
// Exit status 1 and one line per finding when anything fails.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"unicode"

	"dataflasks/internal/lab"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: repolint <file.md | dir> ...")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	var findings []string
	for _, arg := range os.Args[1:] {
		info, err := os.Stat(arg)
		if err != nil {
			findings = append(findings, fmt.Sprintf("%s: %v", arg, err))
			continue
		}
		switch {
		case info.IsDir():
			findings = append(findings, checkPackageDocs(arg)...)
			findings = append(findings, checkFlagTable(filepath.Join(arg, "cmd", "flasksd", "main.go"), filepath.Join(arg, "README.md"))...)
		case strings.HasSuffix(arg, ".md"):
			findings = append(findings, checkMarkdown(root, arg)...)
		default:
			findings = append(findings, fmt.Sprintf("%s: not a directory or .md file", arg))
		}
	}
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// ---------------------------------------------------------------------------
// Package doc comments

// checkPackageDocs walks dir and reports every Go package directory
// whose non-test files all lack a package doc comment.
func checkPackageDocs(dir string) []string {
	var findings []string
	seen := map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		pkgDir := filepath.Dir(path)
		if seen[pkgDir] {
			return nil
		}
		seen[pkgDir] = true
		if !packageHasDoc(pkgDir) {
			findings = append(findings, fmt.Sprintf("%s: package lacks a doc comment on any non-test file", pkgDir))
		}
		return nil
	})
	if err != nil {
		findings = append(findings, fmt.Sprintf("%s: %v", dir, err))
	}
	return findings
}

// packageHasDoc reports whether any non-test .go file in dir carries a
// package doc comment.
func packageHasDoc(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			continue
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// The flasksd knob inventory

// flagDefRe matches one flag registration (flag.String("name", ...);
// flagRowRe one row of the README table (| `-name` | ...).
var (
	flagDefRe = regexp.MustCompile(`\bflag\.[A-Z]\w*\("([^"]+)"`)
	flagRowRe = regexp.MustCompile("(?m)^\\| `-([^`]+)` \\|")
)

// checkFlagTable compares the flags registered in mainFile with the
// rows of the "## flasksd flags" section of readme and reports every
// flag on one side only: a retired flag cannot linger in the docs, a
// new one cannot land undocumented. A directory without both files is
// not the repository root and has nothing to check.
func checkFlagTable(mainFile, readme string) []string {
	src, err := os.ReadFile(mainFile)
	doc, err2 := os.ReadFile(readme)
	if err != nil || err2 != nil {
		return nil
	}
	// A README without the section documents no flag: every one is reported.
	_, section, _ := strings.Cut(string(doc), "\n## flasksd flags\n")
	section, _, _ = strings.Cut(section, "\n## ")
	registered, documented := map[string]bool{}, map[string]bool{}
	for _, m := range flagDefRe.FindAllStringSubmatch(string(src), -1) {
		registered[m[1]] = true
	}
	var findings []string
	for _, m := range flagRowRe.FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
		if !registered[m[1]] {
			findings = append(findings, fmt.Sprintf("%s: flag table documents -%s, which %s does not register", readme, m[1], mainFile))
		}
	}
	for name := range registered {
		if !documented[name] {
			findings = append(findings, fmt.Sprintf("%s: flag -%s has no row in the flag table of %s", mainFile, name, readme))
		}
	}
	sort.Strings(findings)
	return findings
}

// ---------------------------------------------------------------------------
// Markdown links and anchors

// linkRe matches inline links and images: [text](target) — title
// strings after the target are tolerated.
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^()\s]+)(?:\s+"[^"]*")?\)`)

// headingRe matches ATX headings.
var headingRe = regexp.MustCompile(`^#{1,6}\s+(.*?)\s*#*\s*$`)

// expRe matches a flaskbench experiment selection in prose or in a code
// block; placeholders (-exp <name>) do not match.
var expRe = regexp.MustCompile(`-exp ([a-z][a-z0-9]*)`)

// checkMarkdown verifies every relative link and anchor in file, and
// every flaskbench experiment it names.
func checkMarkdown(root, file string) []string {
	data, err := os.ReadFile(file)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", file, err)}
	}
	var findings []string
	for _, link := range extractLinks(string(data)) {
		if f := checkLink(root, file, link.target, link.line); f != "" {
			findings = append(findings, f)
		}
	}
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range expRe.FindAllStringSubmatch(line, -1) {
			if lab.Select(m[1]) == nil {
				findings = append(findings, fmt.Sprintf("%s:%d: -exp %s names no row of lab.Experiments (%s, all)", file, i+1, m[1], lab.Names()))
			}
		}
	}
	return findings
}

type mdLink struct {
	target string
	line   int
}

// extractLinks returns every inline link target outside fenced code
// blocks, with its 1-based line number.
func extractLinks(doc string) []mdLink {
	var out []mdLink
	inFence := false
	for i, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") || strings.HasPrefix(trimmed, "~~~") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			out = append(out, mdLink{target: m[1], line: i + 1})
		}
	}
	return out
}

// checkLink validates one target; empty string means OK.
func checkLink(root, file, target string, line int) string {
	for _, scheme := range []string{"http://", "https://", "mailto:", "ftp://"} {
		if strings.HasPrefix(target, scheme) {
			return "" // external: not checked
		}
	}
	path, frag, _ := strings.Cut(target, "#")
	resolved := file
	if path != "" {
		resolved = filepath.Join(filepath.Dir(file), path)
		abs, err := filepath.Abs(resolved)
		if err != nil {
			return fmt.Sprintf("%s:%d: %s: %v", file, line, target, err)
		}
		rootAbs, _ := filepath.Abs(root)
		if !strings.HasPrefix(abs+string(filepath.Separator), rootAbs+string(filepath.Separator)) {
			return "" // escapes the repo (GitHub-web path): not checkable locally
		}
		if _, err := os.Stat(resolved); err != nil {
			return fmt.Sprintf("%s:%d: broken link %q: %v", file, line, target, err)
		}
	}
	if frag == "" {
		return ""
	}
	if !strings.HasSuffix(resolved, ".md") {
		return "" // anchors into non-markdown targets: not checkable
	}
	data, err := os.ReadFile(resolved)
	if err != nil {
		return fmt.Sprintf("%s:%d: %q: %v", file, line, target, err)
	}
	for _, slug := range headingSlugs(string(data)) {
		if slug == strings.ToLower(frag) {
			return ""
		}
	}
	return fmt.Sprintf("%s:%d: broken anchor %q: no heading slugs to #%s in %s", file, line, target, frag, resolved)
}

// headingSlugs returns the GitHub anchor slugs of every ATX heading
// outside fenced code blocks, with the -1/-2 suffixes GitHub appends
// to duplicates.
func headingSlugs(doc string) []string {
	var slugs []string
	counts := map[string]int{}
	inFence := false
	for _, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") || strings.HasPrefix(trimmed, "~~~") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		m := headingRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		slug := slugify(m[1])
		if n := counts[slug]; n > 0 {
			slugs = append(slugs, fmt.Sprintf("%s-%d", slug, n))
		} else {
			slugs = append(slugs, slug)
		}
		counts[slug]++
	}
	return slugs
}

// slugify applies GitHub's heading-to-anchor rules: lowercase, drop
// everything but letters, digits, spaces, hyphens and underscores
// (markdown emphasis and code markers included), then spaces become
// hyphens.
func slugify(title string) string {
	title = strings.ToLower(title)
	var b strings.Builder
	for _, r := range title {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		case r > 127 && (unicode.IsLetter(r) || unicode.IsDigit(r)):
			// Unicode letters survive slugging (GitHub keeps them);
			// punctuation like em dashes is dropped either way.
			b.WriteRune(r)
		}
	}
	return b.String()
}
