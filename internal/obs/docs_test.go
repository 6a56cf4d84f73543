package obs

import (
	"bytes"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dataflasks/internal/metrics"
)

// The documents an operator reads /metrics from, relative to this
// package, and the file whose "### Metric families" table declares
// every family.
var (
	familyDocs  = []string{"../../README.md", "../../docs/ARCHITECTURE.md"}
	familyTable = "../../docs/ARCHITECTURE.md"
)

// familyToken is a family name mentioned in prose; a trailing * makes
// it a prefix (`flasks_shard_*`).
var familyToken = regexp.MustCompile(`\bflasks_[a-z0-9_]+\*?`)

// TestMetricFamiliesDocumented holds the docs to what WriteMetrics
// emits: a full scrape's (family, TYPE) pairs are exactly the rows of
// the metric families table, and every flasks_ name the README or the
// architecture doc mentions is a scraped family (or one of a
// histogram's series). WriteMetrics is the one declaration of the
// exposition, so a family added, renamed or dropped there fails here
// until the docs follow.
func TestMetricFamiliesDocumented(t *testing.T) {
	src := fullSources(&metrics.LatencyHistogram{}, metrics.NewCommandStats(), NewRing(4))
	v := reflect.ValueOf(src)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("fullSources leaves Sources.%s unset: the families behind it escape this test", v.Type().Field(i).Name)
		}
	}
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, src); err != nil {
		t.Fatal(err)
	}
	scraped, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	rows := familyRows(t)
	for name, f := range scraped {
		if typ, ok := rows[name]; !ok {
			t.Errorf("family %s (%s) is emitted but has no row in the metric families table of %s", name, f.Type, familyTable)
		} else if typ != f.Type {
			t.Errorf("family %s is a %s, its docs row says %s", name, f.Type, typ)
		}
	}
	for name := range rows {
		if _, ok := scraped[name]; !ok {
			t.Errorf("docs row %s names no family a full scrape emits", name)
		}
	}

	for _, path := range familyDocs {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range familyToken.FindAllString(string(text), -1) {
			if !namesFamily(scraped, tok) {
				t.Errorf("%s mentions %s, which names no scraped family", path, tok)
			}
		}
	}
}

// familyRows reads the metric families table: family name to TYPE.
func familyRows(t *testing.T) map[string]string {
	t.Helper()
	text, err := os.ReadFile(familyTable)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(text), "\n### Metric families\n")
	if !ok {
		t.Fatalf("%s has no \"### Metric families\" section", familyTable)
	}
	section, _, _ = strings.Cut(section, "\n#")
	rows := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			t.Errorf("malformed metric families row %q", line)
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if _, dup := rows[name]; dup {
			t.Errorf("family %s has two docs rows", name)
		}
		rows[name] = strings.TrimSpace(cells[2])
	}
	return rows
}

// namesFamily reports whether tok is a scraped family, a series of a
// scraped histogram, or (ending in *) a prefix of some scraped family.
func namesFamily(scraped map[string]*Family, tok string) bool {
	if prefix, ok := strings.CutSuffix(tok, "*"); ok {
		for name := range scraped {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}
	if _, ok := scraped[tok]; ok {
		return true
	}
	for _, series := range []string{"_bucket", "_sum", "_count"} {
		if f, ok := scraped[strings.TrimSuffix(tok, series)]; ok && f.Type == "histogram" {
			return true
		}
	}
	return false
}
