// Observability subcommands: stats and trace scrape a node's HTTP
// plane (flasksd -http-addr) and pretty-print what it serves. They
// validate the scrape through obs.ParseExposition, so flaskctl doubles
// as a conformance check against any running node.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"dataflasks/internal/obs"
)

// httpGet fetches one plane endpoint; addr may be bare "host:port".
func httpGet(addr, path string, timeout time.Duration) ([]byte, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	c := &http.Client{Timeout: timeout}
	resp, err := c.Get(addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s%s: %s: %s", addr, path, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// runStats scrapes /metrics and prints every family, histograms
// condensed to count/sum plus derived quantile upper bounds.
func runStats(addr string, timeout time.Duration) {
	body, err := httpGet(addr, "/metrics", timeout)
	if err != nil {
		fatal(err)
	}
	families, err := obs.ParseExposition(body)
	if err != nil {
		fatal(fmt.Errorf("malformed /metrics exposition: %w", err))
	}
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := families[name]
		if f.Type == "histogram" {
			printHistogram(f)
			continue
		}
		for _, s := range f.Samples {
			fmt.Printf("%-44s %s\n", sampleLabel(s), formatValue(s.Value))
		}
	}
	for _, line := range []string{directedHitRatio(families), putsPerCommit(families)} {
		if line != "" {
			fmt.Println(line)
		}
	}
}

// firstValue reads an unlabeled family's sample, 0 when absent.
func firstValue(families map[string]*obs.Family, name string) float64 {
	f := families[name]
	if f == nil || len(f.Samples) == 0 {
		return 0
	}
	return f.Samples[0].Value
}

// putsPerCommit derives how many stored objects shared one store write
// — one group-commit wait with fsync on: one or two on a node serving
// blocking writers (a put and the relay copy that rode with it), rising
// with the puts in flight. Empty before the node has stored anything.
func putsPerCommit(families map[string]*obs.Family) string {
	puts := firstValue(families, "flasks_puts_served_total")
	commits := firstValue(families, "flasks_put_commits_total")
	if commits == 0 {
		return ""
	}
	return fmt.Sprintf("%-44s %.3f (%s puts in %s store commits)",
		"puts per commit", puts/commits, formatValue(puts), formatValue(commits))
}

// directedHitRatio derives, from the two global-phase hop counters, the
// share of hops that went to one known target-slice peer rather than
// the fanout. Empty before the node has relayed anything.
func directedHitRatio(families map[string]*obs.Family) string {
	directed := firstValue(families, "flasks_requests_directed_total")
	hops := directed + firstValue(families, "flasks_requests_flooded_total")
	if hops == 0 {
		return ""
	}
	return fmt.Sprintf("%-44s %.3f (%s of %s global-phase hops)",
		"directed-hit ratio", directed/hops, formatValue(directed), formatValue(hops))
}

// sampleLabel renders a sample's name with its labels, if any.
func sampleLabel(s obs.Sample) string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, s.Labels[k])
	}
	return s.Name + "{" + strings.Join(parts, ",") + "}"
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// printHistogram prints one line per label group: count, sum and the
// p50/p99 upper bounds the power-of-two buckets support.
func printHistogram(f *obs.Family) {
	type series struct {
		labels  string
		les     []float64
		buckets []float64
		sum     float64
		count   float64
	}
	groups := map[string]*series{}
	var order []string
	for _, s := range f.Samples {
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%q", k, s.Labels[k])
		}
		sig := strings.Join(parts, ",")
		g, ok := groups[sig]
		if !ok {
			g = &series{labels: sig}
			groups[sig] = g
			order = append(order, sig)
		}
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			le, _ := strconv.ParseFloat(s.Labels["le"], 64)
			g.les = append(g.les, le)
			g.buckets = append(g.buckets, s.Value)
		case strings.HasSuffix(s.Name, "_sum"):
			g.sum = s.Value
		case strings.HasSuffix(s.Name, "_count"):
			g.count = s.Value
		}
	}
	for _, sig := range order {
		g := groups[sig]
		name := f.Name
		if g.labels != "" {
			name += "{" + g.labels + "}"
		}
		fmt.Printf("%-44s count=%s sum=%ss p50<=%s p99<=%s\n",
			name, formatValue(g.count), formatValue(g.sum),
			quantileBound(g.les, g.buckets, g.count, 0.50),
			quantileBound(g.les, g.buckets, g.count, 0.99))
	}
}

// quantileBound returns the smallest bucket bound covering quantile q
// of a cumulative bucket series — an upper bound exact to within the
// 2x bucket spacing (see the exposition HELP text).
func quantileBound(les, buckets []float64, count, q float64) string {
	if count == 0 {
		return "-"
	}
	target := q * count
	for i, cum := range buckets {
		if cum >= target {
			if math.IsInf(les[i], 1) {
				return "+Inf"
			}
			return time.Duration(les[i] * float64(time.Second)).Round(time.Microsecond).String()
		}
	}
	return "+Inf"
}

// runTrace dumps /trace (optionally one trace id) as readable lines.
func runTrace(addr, traceID string, timeout time.Duration) {
	path := "/trace"
	if traceID != "" {
		if _, err := strconv.ParseUint(traceID, 10, 64); err != nil {
			fatal(fmt.Errorf("bad trace id %q: %w", traceID, err))
		}
		path += "?id=" + traceID
	}
	body, err := httpGet(addr, path, timeout)
	if err != nil {
		fatal(err)
	}
	var dump struct {
		Node   uint64 `json:"node"`
		Events []struct {
			Kind    string        `json:"kind"`
			Seq     uint64        `json:"seq"`
			Time    int64         `json:"time_unix_nano"`
			TraceID uint64        `json:"trace_id"`
			Key     string        `json:"key"`
			Peer    uint64        `json:"peer"`
			Seg     uint64        `json:"seg"`
			Bytes   uint64        `json:"bytes"`
			Objects uint64        `json:"objects"`
			Dur     time.Duration `json:"dur_nanos"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		fatal(fmt.Errorf("malformed /trace response: %w", err))
	}
	fmt.Printf("node %d: %d events\n", dump.Node, len(dump.Events))
	for _, ev := range dump.Events {
		var b strings.Builder
		fmt.Fprintf(&b, "%s  #%-5d %-13s", time.Unix(0, ev.Time).Format("15:04:05.000"), ev.Seq, ev.Kind)
		if ev.TraceID != 0 {
			fmt.Fprintf(&b, " trace=%d", ev.TraceID)
		}
		if ev.Key != "" {
			fmt.Fprintf(&b, " key=%q", ev.Key)
		}
		if ev.Peer != 0 {
			fmt.Fprintf(&b, " peer=%d", ev.Peer)
		}
		if ev.Seg != 0 {
			fmt.Fprintf(&b, " seg=%d", ev.Seg)
		}
		if ev.Bytes != 0 {
			fmt.Fprintf(&b, " bytes=%d", ev.Bytes)
		}
		if ev.Objects != 0 {
			fmt.Fprintf(&b, " objects=%d", ev.Objects)
		}
		if ev.Dur != 0 {
			fmt.Fprintf(&b, " dur=%s", ev.Dur)
		}
		fmt.Println(b.String())
	}
}
