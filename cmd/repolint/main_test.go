package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSlugify(t *testing.T) {
	cases := map[string]string{
		"Two-layer architecture":          "two-layer-architecture",
		"Building and testing":            "building-and-testing",
		"Store engines":                   "store-engines",
		"Anti-entropy & repair (tuning)":  "anti-entropy--repair-tuning",
		"Flags: `-resp-addr` and friends": "flags--resp-addr-and-friends",
		"§III protocol — packages":        "iii-protocol--packages",
	}
	for in, want := range cases {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHeadingSlugsDuplicatesAndFences(t *testing.T) {
	doc := "# Title\n## Setup\n```\n# not a heading\n```\n## Setup\n"
	got := headingSlugs(doc)
	want := []string{"title", "setup", "setup-1"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("headingSlugs = %v, want %v", got, want)
	}
}

func TestExtractLinksSkipsFences(t *testing.T) {
	doc := "see [a](x.md)\n```\n[b](y.md)\n```\n![img](pic.png)\n"
	links := extractLinks(doc)
	if len(links) != 2 || links[0].target != "x.md" || links[1].target != "pic.png" {
		t.Fatalf("extractLinks = %+v", links)
	}
	if links[0].line != 1 || links[1].line != 5 {
		t.Fatalf("line numbers = %d, %d", links[0].line, links[1].line)
	}
}

func TestCheckMarkdown(t *testing.T) {
	dir := t.TempDir()
	other := filepath.Join(dir, "other.md")
	os.WriteFile(other, []byte("# Other Doc\n## Real Section\n"), 0o644)
	main := filepath.Join(dir, "main.md")
	content := strings.Join([]string{
		"# Main",
		"[ok file](other.md)",
		"[ok anchor](other.md#real-section)",
		"[ok self](#main)",
		"[external](https://example.com/nope)",
		"[escapes root](../../outside/place.md)",
		"[broken file](missing.md)",
		"[broken anchor](other.md#no-such)",
		"run `flaskbench -exp route -quick`, `-exp all` or any `-exp <name>`",
		"the retired `flaskbench -exp disk`",
	}, "\n")
	os.WriteFile(main, []byte(content), 0o644)

	findings := checkMarkdown(dir, main)
	if len(findings) != 3 {
		t.Fatalf("findings = %d: %v", len(findings), findings)
	}
	if !strings.Contains(findings[0], "missing.md") {
		t.Errorf("first finding should be the missing file: %s", findings[0])
	}
	if !strings.Contains(findings[1], "no-such") {
		t.Errorf("second finding should be the broken anchor: %s", findings[1])
	}
	if !strings.Contains(findings[2], "-exp disk names no row") {
		t.Errorf("third finding should be the experiment no row names: %s", findings[2])
	}
}

func TestPackageDocCheck(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good")
	bad := filepath.Join(dir, "bad")
	os.MkdirAll(good, 0o755)
	os.MkdirAll(bad, 0o755)
	os.WriteFile(filepath.Join(good, "g.go"), []byte("// Package good is documented.\npackage good\n"), 0o644)
	os.WriteFile(filepath.Join(bad, "b.go"), []byte("package bad\n"), 0o644)
	// A documented test file must NOT rescue an undocumented package.
	os.WriteFile(filepath.Join(bad, "b_test.go"), []byte("// Package bad docs in tests do not count.\npackage bad\n"), 0o644)

	findings := checkPackageDocs(dir)
	if len(findings) != 1 || !strings.Contains(findings[0], "bad") {
		t.Fatalf("findings = %v, want exactly the bad package", findings)
	}
}

func TestCheckFlagTable(t *testing.T) {
	dir := t.TempDir()
	mainFile := filepath.Join(dir, "main.go")
	readme := filepath.Join(dir, "README.md")
	os.WriteFile(mainFile, []byte(`package main
var (
	id      = flag.Uint64("id", 0, "node id")
	engine  = flag.String("engine", "log", "engine")
	secret  = flag.Duration("undocumented", 0, "nobody wrote this down")
)`), 0o644)
	table := strings.Join([]string{
		"# Doc",
		"| `-not-a-flasksd-flag` | rows outside the section do not count |",
		"## flasksd flags",
		"| Flag | Default | Meaning |",
		"|------|---------|---------|",
		"| `-id` | (required) | node id |",
		"| `-engine` | `log` | engine |",
		"| `-retired` | 0 | removed from main.go, left in the docs |",
		"## Next section",
		"| `-also-outside` | x |",
	}, "\n")
	os.WriteFile(readme, []byte(table), 0o644)

	findings := checkFlagTable(mainFile, readme)
	if len(findings) != 2 || !strings.Contains(findings[0], "-retired") || !strings.Contains(findings[1], "-undocumented") {
		t.Fatalf("findings = %v, want the retired row and the undocumented flag", findings)
	}
	// Sets that agree are clean; a directory that is not the repository
	// root (either file missing) has nothing to check.
	os.WriteFile(readme, []byte(strings.Replace(table, "-retired", "-undocumented", 1)), 0o644)
	if findings := checkFlagTable(mainFile, readme); len(findings) != 0 {
		t.Fatalf("agreeing sets reported: %v", findings)
	}
	if findings := checkFlagTable(filepath.Join(dir, "absent.go"), readme); len(findings) != 0 {
		t.Fatalf("missing main.go reported: %v", findings)
	}
}
