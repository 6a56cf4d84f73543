package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"

	"dataflasks/internal/obs"
)

// families is one node's parsed /metrics document.
type families map[string]*obs.Family

// scrapeMetrics fetches and parses one node's exposition with the same
// strict parser the repo's own smoke tests use.
func scrapeMetrics(hc *http.Client, httpAddr string) (families, error) {
	resp, err := hc.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read /metrics of %s: %w", httpAddr, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics of %s: status %d", httpAddr, resp.StatusCode)
	}
	fams, err := obs.ParseExposition(body)
	if err != nil {
		return nil, fmt.Errorf("/metrics of %s: %w", httpAddr, err)
	}
	return fams, nil
}

// value sums a family's plain samples (all label sets); 0 when the
// family is absent, as on nodes without shards or a gateway.
func (f families) value(name string) float64 {
	fam := f[name]
	if fam == nil {
		return 0
	}
	sum := 0.0
	for _, s := range fam.Samples {
		if s.Name == name {
			sum += s.Value
		}
	}
	return sum
}

// histogram is a cumulative-bucket histogram: count[i] observations
// were at most le[i] seconds; the last bound is +Inf.
type histogram struct {
	le    []float64
	count []float64
}

// histogramOf merges every series of a histogram family whose labels
// pass keep (nil keeps all) into one histogram.
func (f families) histogramOf(name string, keep func(labels map[string]string) bool) histogram {
	fam := f[name]
	if fam == nil {
		return histogram{}
	}
	byLe := map[float64]float64{}
	for _, s := range fam.Samples {
		if s.Name != name+"_bucket" || (keep != nil && !keep(s.Labels)) {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue // ParseExposition already rejected malformed bounds
		}
		byLe[le] += s.Value
	}
	h := histogram{}
	for le := range byLe {
		h.le = append(h.le, le)
	}
	sort.Float64s(h.le)
	for _, le := range h.le {
		h.count = append(h.count, byLe[le])
	}
	return h
}

// add returns h + o, and sub h - o: what was observed between two
// scrapes. Every histogram carries the node's fixed bucket bounds; an
// empty side (the family was absent from a scrape) counts as zero.
func (h histogram) add(o histogram) histogram { return h.plus(o, 1) }
func (h histogram) sub(o histogram) histogram { return h.plus(o, -1) }

func (h histogram) plus(o histogram, sign float64) histogram {
	if len(o.count) == 0 {
		return h
	}
	out := histogram{le: o.le, count: make([]float64, len(o.count))}
	copy(out.count, h.count)
	for i, c := range o.count {
		out.count[i] += sign * c
	}
	return out
}

// quantile reads the q-quantile off the buckets in seconds,
// interpolating linearly inside the bucket it falls in (the
// histogram_quantile rule); 0 when nothing was observed. The node's
// buckets are powers of two, so the answer is exact to within 2x.
func (h histogram) quantile(q float64) float64 {
	n := len(h.count)
	if n == 0 || h.count[n-1] <= 0 {
		return 0
	}
	rank := q * h.count[n-1]
	for i, c := range h.count {
		if c < rank {
			continue
		}
		if math.IsInf(h.le[i], 1) {
			if i == 0 {
				return 0
			}
			return h.le[i-1]
		}
		lo, below := 0.0, 0.0
		if i > 0 {
			lo, below = h.le[i-1], h.count[i-1]
		}
		if c == below {
			return h.le[i]
		}
		return lo + (h.le[i]-lo)*(rank-below)/(c-below)
	}
	return h.le[n-1]
}

// procSample is what /proc says about one node process.
type procSample struct {
	cpuTicks   float64 // utime + stime, in clock ticks
	ctxSwitch  float64 // voluntary + involuntary
	hwmKB      float64 // VmHWM
	writeCalls float64 // syscw
	writeBytes float64 // write_bytes: bytes sent to the storage layer
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; Linux
// fixes it at 100 for user space on every architecture.
const clockTick = 100

func readProc(pid int) (procSample, error) {
	var p procSample
	dir := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return p, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted after the closing parenthesis (utime is field 14 overall).
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 13 {
		return p, fmt.Errorf("%s/stat: %d fields", dir, len(fields))
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return p, fmt.Errorf("%s/stat: bad utime/stime", dir)
	}
	p.cpuTicks = utime + stime

	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return p, err
	}
	p.hwmKB = colonFields(string(status))["VmHWM"]
	// The switch counts in status are the main thread's alone; the
	// process's are the sum over its threads.
	tasks, err := os.ReadDir(dir + "/task")
	if err != nil {
		return p, err
	}
	for _, t := range tasks {
		if status, err := os.ReadFile(dir + "/task/" + t.Name() + "/status"); err == nil { // a thread may end mid-walk
			kv := colonFields(string(status))
			p.ctxSwitch += kv["voluntary_ctxt_switches"] + kv["nonvoluntary_ctxt_switches"]
		}
	}

	// /proc/<pid>/io needs ptrace access; a sandbox may withhold it even
	// from the parent, and the two I/O metrics then read 0.
	if io, err := os.ReadFile(dir + "/io"); err == nil {
		kv := colonFields(string(io))
		p.writeCalls = kv["syscw"]
		p.writeBytes = kv["write_bytes"]
	}
	return p, nil
}

// colonFields parses "name:  123 kB" lines into name -> 123.
func colonFields(doc string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(doc, "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(f[0], 64); err == nil {
			out[name] = v
		}
	}
	return out
}
