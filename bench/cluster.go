package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The cluster every workload runs against: 4 nodes, 2 slices, so rank
// slicing settles at 2 + 2 and the replication factor is 2.
const (
	clusterNodes  = 4
	clusterSlices = 2
	// gossipPeriod keeps set-up short and makes the control plane a
	// visible share of the budget.
	gossipPeriod = 100 * time.Millisecond
	// segmentBytes lets segments roll and compaction cycle inside a run.
	segmentBytes = 4 << 20
	// stableRounds is how many consecutive gossip rounds the 2 + 2 slice
	// assignment must hold before anything is timed.
	stableRounds = 10
)

// procSet tracks every child the benchmark started, so that one call
// kills and reaps them all on exit, panic or signal.
type procSet struct {
	mu    sync.Mutex
	procs map[*nodeProc]struct{}
}

func newProcSet() *procSet { return &procSet{procs: map[*nodeProc]struct{}{}} }

func (ps *procSet) add(p *nodeProc) {
	ps.mu.Lock()
	ps.procs[p] = struct{}{}
	ps.mu.Unlock()
}

func (ps *procSet) remove(p *nodeProc) {
	ps.mu.Lock()
	delete(ps.procs, p)
	ps.mu.Unlock()
}

// killAll kills every live child and waits until each has ended.
func (ps *procSet) killAll() {
	ps.mu.Lock()
	procs := make([]*nodeProc, 0, len(ps.procs))
	for p := range ps.procs {
		procs = append(procs, p)
	}
	ps.mu.Unlock()
	for _, p := range procs {
		_ = p.cmd.Process.Kill() // already gone is fine
	}
	for _, p := range procs {
		<-p.exited
		ps.remove(p)
	}
}

// nodeProc is one flasksd child.
type nodeProc struct {
	id       int
	cmd      *exec.Cmd
	bind     string
	httpAddr string
	respAddr string
	dataDir  string
	logPath  string
	exited   chan struct{} // closed once Wait returned
}

// cluster is one fresh 4-process deployment under its own directory.
type cluster struct {
	nodes []*nodeProc
	dir   string
	procs *procSet
	hc    *http.Client
}

// strayDaemons lists live flasksd processes. A leftover from an earlier
// run would share the two cores and skew every number, so the
// benchmark refuses to start beside one.
func strayDaemons() ([]int, error) {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil, err
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		comm, err := os.ReadFile(filepath.Join("/proc", e.Name(), "comm"))
		if err != nil || strings.TrimSpace(string(comm)) != "flasksd" {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue // ended between the two reads
		}
		if i := strings.LastIndexByte(string(stat), ')'); i >= 0 && strings.HasPrefix(string(stat[i+1:]), " Z") {
			continue // a zombie uses no CPU; its parent will reap it
		}
		pids = append(pids, pid)
	}
	return pids, nil
}

// freePorts asks the kernel for n distinct free loopback ports. They
// are released before the daemons bind them, which leaves a small
// window; a daemon that loses the race fails to start and the run
// reports it.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// startCluster spawns the 4 daemons for sp under dir. It returns as
// soon as the processes exist; waitReady and waitConverged gate on
// their state.
func startCluster(procs *procSet, flasksd, dir string, sp spec) (*cluster, error) {
	addrs, err := freePorts(clusterNodes*2 + 1)
	if err != nil {
		return nil, fmt.Errorf("pick ports: %w", err)
	}
	c := &cluster{
		dir:   dir,
		procs: procs,
		hc:    &http.Client{Timeout: 2 * time.Second},
	}
	for i := 0; i < clusterNodes; i++ {
		p := &nodeProc{
			id:       i + 1,
			bind:     addrs[2*i],
			httpAddr: addrs[2*i+1],
			dataDir:  filepath.Join(dir, fmt.Sprintf("n%d", i+1)),
			logPath:  filepath.Join(dir, fmt.Sprintf("n%d.log", i+1)),
			exited:   make(chan struct{}),
		}
		args := []string{
			"-id", strconv.Itoa(p.id), "-bind", p.bind, "-data", p.dataDir,
			"-engine", "log", "-fsync=true",
			"-slices", strconv.Itoa(clusterSlices), "-system-size", strconv.Itoa(clusterNodes),
			"-capacity", strconv.Itoa(p.id),
			"-period", gossipPeriod.String(), "-segment-bytes", strconv.Itoa(segmentBytes),
			"-status", "0", "-http-addr", p.httpAddr,
		}
		if i > 0 {
			args = append(args, "-seeds", "1@"+c.nodes[0].bind)
		}
		if sp.dataShards > 0 {
			args = append(args, "-data-shards", strconv.Itoa(sp.dataShards))
		}
		if sp.resp && i == 0 {
			p.respAddr = addrs[2*clusterNodes]
			args = append(args, "-resp-addr", p.respAddr)
		}
		logFile, err := os.Create(p.logPath)
		if err != nil {
			c.stop()
			return nil, err
		}
		p.cmd = exec.Command(flasksd, args...)
		p.cmd.Stdout = logFile
		p.cmd.Stderr = logFile
		// If the benchmark itself is killed outright, its children must
		// not survive it.
		p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = p.cmd.Start()
		logFile.Close() // the child holds its own descriptor
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("start node %d: %w", p.id, err)
		}
		procs.add(p)
		go func() {
			_ = p.cmd.Wait() // exit status is irrelevant: the run checks liveness through /readyz and the ops
			close(p.exited)
		}()
		c.nodes = append(c.nodes, p)
	}
	return c, nil
}

// seeds lists the nodes as client contacts.
func (c *cluster) seeds() []string {
	out := make([]string, len(c.nodes))
	for i, p := range c.nodes {
		out[i] = fmt.Sprintf("%d@%s", p.id, p.bind)
	}
	return out
}

// alive reports an error naming the first node that has exited.
func (c *cluster) alive() error {
	for _, p := range c.nodes {
		select {
		case <-p.exited:
			return fmt.Errorf("node %d exited: %s", p.id, tailOf(p.logPath))
		default:
		}
	}
	return nil
}

func tailOf(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(data) > 600 {
		data = data[len(data)-600:]
	}
	return strings.TrimSpace(string(data))
}

// waitReady polls every node's /readyz until all answer 200.
func (c *cluster) waitReady(ctx context.Context) error {
	for _, p := range c.nodes {
		for {
			resp, err := c.hc.Get("http://" + p.httpAddr + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if err := c.alive(); err != nil {
				return err
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("node %d never became ready: %w", p.id, ctx.Err())
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
	return nil
}

// assignment reads every node's flasks_slice gauge.
func (c *cluster) assignment() ([]int, error) {
	out := make([]int, len(c.nodes))
	for i, p := range c.nodes {
		fams, err := scrapeMetrics(c.hc, p.httpAddr)
		if err != nil {
			return nil, err
		}
		out[i] = int(fams.value("flasks_slice"))
	}
	return out, nil
}

// balanced reports whether the assignment is the expected 2 + 2.
func balanced(slices []int) bool {
	count := make([]int, clusterSlices)
	for _, s := range slices {
		if s < 0 || s >= clusterSlices {
			return false
		}
		count[s]++
	}
	for _, n := range count {
		if n != len(slices)/clusterSlices {
			return false
		}
	}
	return true
}

// waitConverged blocks until the slice assignment is 2 + 2 and has not
// changed for stableRounds gossip rounds. /readyz flips as soon as a
// node holds any slice, which can still be a 3 + 1 split; numbers from
// such a cluster describe a different replication factor.
func (c *cluster) waitConverged(ctx context.Context) ([]int, error) {
	var last []int
	stable := 0
	tick := time.NewTicker(gossipPeriod)
	defer tick.Stop()
	for {
		cur, err := c.assignment()
		if err != nil {
			if aerr := c.alive(); aerr != nil {
				return nil, aerr
			}
			return nil, err
		}
		if balanced(cur) && slices.Equal(cur, last) {
			stable++
		} else {
			stable = 0
		}
		last = cur
		if stable >= stableRounds {
			return cur, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("slicing never settled at 2+2 (last %v): %w", last, ctx.Err())
		case <-tick.C:
		}
	}
}

// snapshot is every node's counters and process accounting at one
// instant; two of them bracket the timed window.
type snapshot struct {
	fams []families
	proc []procSample
	at   time.Time
}

func (c *cluster) snapshot() (snapshot, error) {
	s := snapshot{at: time.Now()}
	for _, p := range c.nodes {
		fams, err := scrapeMetrics(c.hc, p.httpAddr)
		if err != nil {
			return s, err
		}
		ps, err := readProc(p.cmd.Process.Pid)
		if err != nil {
			return s, fmt.Errorf("node %d: %w", p.id, err)
		}
		s.fams = append(s.fams, fams)
		s.proc = append(s.proc, ps)
	}
	return s, nil
}

// sum adds one family's value over all nodes.
func (s snapshot) sum(name string) float64 {
	total := 0.0
	for _, f := range s.fams {
		total += f.value(name)
	}
	return total
}

// hist merges one histogram family over all nodes.
func (s snapshot) hist(name string, keep func(map[string]string) bool) histogram {
	var h histogram
	for _, f := range s.fams {
		h = h.add(f.histogramOf(name, keep))
	}
	return h
}

func (s snapshot) procSum(field func(procSample) float64) float64 {
	total := 0.0
	for _, p := range s.proc {
		total += field(p)
	}
	return total
}

// diskBytes totals the regular files under every node's data directory.
func (c *cluster) diskBytes() (int64, error) {
	var total int64
	for _, p := range c.nodes {
		err := filepath.WalkDir(p.dataDir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					return nil // compaction removed a segment mid-walk
				}
				return err
			}
			if d.Type().IsRegular() {
				if info, err := d.Info(); err == nil {
					total += info.Size()
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// stop shuts the daemons down (SIGTERM, then SIGKILL after 5 s), waits
// for each and removes the cluster's directory.
func (c *cluster) stop() {
	for _, p := range c.nodes {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	}
	for _, p := range c.nodes {
		select {
		case <-p.exited:
		case <-time.After(5 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
		c.procs.remove(p)
	}
	c.hc.CloseIdleConnections()
	_ = os.RemoveAll(c.dir) // the run root is removed again at exit
}
