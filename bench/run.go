package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dataflasks"
)

// setupBudget bounds one set-up (spawn, ready, converged, preloaded).
const setupBudget = 60 * time.Second

// portAttempts is how often a set-up may start over because a daemon
// lost the race for one of its ports.
const portAttempts = 3

// errInvalid marks a run whose cluster was not the one the benchmark
// describes (slices moved, an acknowledged write missing): it yields no
// result row at all.
var errInvalid = errors.New("invalid run")

// runResult is one run of one workload.
type runResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Ops is the timed budget (Attempted equals it) and WindowS how
	// long it took, first issue to last completion.
	Ops       int     `json:"ops"`
	WindowS   float64 `json:"window_s"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Wrong counts replies that failed verification (also in Failed).
	Wrong int `json:"wrong"`
	// PutSamples and GetSamples are the verified-OK ops the latency
	// percentiles were taken over.
	PutSamples int `json:"put_samples"`
	GetSamples int `json:"get_samples"`
	// StreamHash identifies the generated op stream.
	StreamHash string             `json:"op_stream_hash"`
	SetupS     []float64          `json:"setup_samples_s"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	// PerLayer holds the count metrics always, and the time metrics
	// when the run was traced (the two blocking workloads only).
	PerLayer map[string]float64 `json:"per_layer"`
	firstErr error
}

// live is one set-up cluster with its clients.
type live struct {
	c       *cluster
	clients []*dataflasks.Client
	conns   []*respConn
	slices  []int
	// preloaded is the value bytes stored before the window.
	preloaded int64
	setup     time.Duration
}

func (l *live) close() {
	for _, cl := range l.clients {
		cl.Close()
	}
	for _, rc := range l.conns {
		rc.conn.Close()
	}
	l.c.stop()
}

// workers is how many clients or connections drive sp here: never more
// than the cores the load generator has.
func workers(sp spec) int { return min(sp.workers, runtime.NumCPU()) }

// setUp brings up a fresh cluster for sp and preloads it: first spawn,
// every /readyz 200, slicing stable at 2 + 2, records stored on both
// replicas. Its duration is one setup_s sample.
func (e *env) setUp(ctx context.Context, sp spec, seed uint64) (*live, error) {
	ctx, cancel := context.WithTimeout(ctx, setupBudget)
	defer cancel()
	// The free ports were released before the daemons bind them, and an
	// outgoing connection can take one in between. That is the
	// harness's accident, not a set-up: start again with fresh ports and
	// a fresh clock.
	var (
		t0 time.Time
		c  *cluster
	)
	for attempt := 1; ; attempt++ {
		dir, err := os.MkdirTemp(e.runDir, sp.name+"-")
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		if c, err = startCluster(e.procs, e.flasksd, dir, sp); err != nil {
			return nil, err
		}
		if err = c.waitReady(ctx); err == nil {
			break
		}
		c.stop()
		if attempt == portAttempts || !strings.Contains(err.Error(), "address already in use") {
			return nil, err
		}
		fmt.Printf("set-up: a picked port was taken, starting again: %v\n", err)
	}
	l := &live{c: c}
	fail := func(err error) (*live, error) {
		l.close()
		return nil, err
	}
	var err error
	if l.slices, err = c.waitConverged(ctx); err != nil {
		return fail(err)
	}
	// The RESP workload still needs one native client: for the preload
	// and nothing else.
	native := workers(sp)
	if sp.resp {
		native = 1
	}
	for i := 0; i < native; i++ {
		cl, err := dataflasks.ConnectClient("127.0.0.1:0", c.seeds(), dataflasks.Config{Slices: clusterSlices})
		if err != nil {
			return fail(err)
		}
		l.clients = append(l.clients, cl)
	}
	if l.preloaded, err = preload(ctx, c, l.clients[0], sp, seed); err != nil {
		return fail(err)
	}
	if sp.resp {
		for i := 0; i < workers(sp); i++ {
			rc, err := dialRESP(c.nodes[0].respAddr)
			if err != nil {
				return fail(fmt.Errorf("dial gateway: %w", err))
			}
			l.conns = append(l.conns, rc)
		}
	}
	l.setup = time.Since(t0)
	return l, nil
}

// runWorkload measures sp once: setups set-ups (all but the last torn
// down at once, so setup_s is a median), a warm-up, ops timed ops
// bracketed by two snapshots and cut off at wallCap, and the output
// checks.
func (e *env) runWorkload(ctx context.Context, sp spec, seed uint64, ops int, wallCap time.Duration, setups int) (*runResult, error) {
	if pids, err := strayDaemons(); err != nil {
		return nil, err
	} else if len(pids) > 0 {
		return nil, fmt.Errorf("flasksd already running (pids %v): stop it first, it would share the cores", pids)
	}
	res := &runResult{
		Workload: sp.name, Seed: seed, Ops: ops,
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{},
	}
	var l *live
	for i := 0; i < setups; i++ {
		if l != nil {
			l.close()
		}
		var err error
		if l, err = e.setUp(ctx, sp, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupS = append(res.SetupS, l.setup.Seconds())
	}
	defer l.close()

	var lanes []lane
	if sp.resp {
		for i, rc := range l.conns {
			lanes = append(lanes, newRESPLane(rc, sp, seed, i))
		}
	} else {
		for i := 0; i < len(l.clients)*sp.window; i++ {
			lanes = append(lanes, newNativeLane(l.clients[i/sp.window], sp, seed, i))
		}
	}
	res.StreamHash = fmt.Sprintf("%016x", streamHash(sp, seed, len(lanes), 256))

	var before snapshot
	t, err := runLanes(ctx, lanes, ops, wallCap, func() (err error) {
		before, err = l.c.snapshot()
		return err
	})
	if err != nil {
		return nil, err
	}
	after, err := l.c.snapshot()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err // interrupted: what was measured is not a window
	}
	if err := l.c.alive(); err != nil {
		return nil, err
	}
	res.WindowS = t.window.Seconds()
	res.Attempted, res.Failed, res.Wrong, res.firstErr = t.attempted, t.failed, t.wrong, t.firstErr
	if t.attempted == 0 || t.ok() == 0 {
		return nil, fmt.Errorf("no op completed: %v", t.firstErr)
	}
	res.PutSamples, res.GetSamples = len(t.putLat), len(t.getLat)

	flaps := 0
	for i := range l.slices {
		if int(after.fams[i].value("flasks_slice")) != l.slices[i] || int(before.fams[i].value("flasks_slice")) != l.slices[i] {
			flaps++
		}
	}
	if flaps > 0 {
		return nil, fmt.Errorf("%w: %d nodes changed slice during the window", errInvalid, flaps)
	}
	if err := e.verify(ctx, l, sp, seed, t); err != nil {
		return nil, err
	}
	disk, err := l.c.diskBytes()
	if err != nil {
		return nil, err
	}
	var dropped uint64
	for _, cl := range l.clients {
		dropped += cl.MailboxDropped()
	}
	fillMetrics(res, sp, t, before, after, disk, l.preloaded, float64(dropped))
	return res, nil
}

// verify checks the outputs of a write workload after its window: every
// acknowledged (key, version) is stored somewhere, and a sample reads
// back with the right bytes.
func (e *env) verify(ctx context.Context, l *live, sp spec, seed uint64, t *tally) error {
	if t.pairs == 0 {
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	// Relay copies sit in the mates' accumulation window for up to a
	// round; give full replication a few rounds before reading back, so
	// that a replica that is merely behind does not answer.
	replicas := clusterNodes / clusterSlices
	want := float64((sp.records + t.pairs) * replicas)
	var stored float64
	for deadline := time.Now().Add(3 * time.Second); ; {
		snap, err := l.c.snapshot()
		if err != nil {
			return err
		}
		stored = snap.sum("flasks_stored_objects")
		if stored >= want || time.Now().After(deadline) {
			break
		}
		time.Sleep(gossipPeriod)
	}
	if least := float64(sp.records*replicas + t.pairs); stored < least {
		return fmt.Errorf("%w: nodes store %v objects, fewer than the %v preloaded and acknowledged", errInvalid, stored, least)
	}
	var err error
	if sp.resp {
		err = readbackRESP(l.conns[0], sp, seed, t.last)
	} else {
		err = readback(ctx, l.clients[0], sp, seed, t.last)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", errInvalid, err)
	}
	return nil
}

// fillMetrics derives every metric the real-process run can give.
func fillMetrics(res *runResult, sp spec, t *tally, before, after snapshot, disk, preloaded int64, clientDropped float64) {
	ok := float64(t.ok())
	window := t.window.Seconds()
	delta := func(name string) float64 { return after.sum(name) - before.sum(name) }
	procDelta := func(f func(procSample) float64) float64 { return after.procSum(f) - before.procSum(f) }
	put, get := sortedMs(t.putLat), sortedMs(t.getLat)

	nodeCPUus := procDelta(func(p procSample) float64 { return p.cpuTicks }) / clockTick * 1e6

	e := res.EndToEnd
	e["ops_per_s"] = ok / window
	e["put_p50_ms"], e["get_p50_ms"] = supported(put, 0.50), supported(get, 0.50)
	e["fail_share"] = float64(t.failed) / float64(t.attempted)
	e["cpu_us_per_op"] = nodeCPUus / ok
	if t.clientCPU > 0 {
		e["node_cpu_per_client_cpu"] = nodeCPUus / (float64(t.clientCPU) / 1e3)
	}
	e["data_msgs_per_op"] = delta("flasks_data_sent_total") / ok
	e["wire_bytes_per_op"] = delta("flasks_wire_encode_bytes_total") / ok
	e["setup_s"] = median(res.SetupS)

	p := res.PerLayer
	p["client.retries_per_op"] = float64(t.retries) / ok
	p["client.mailbox_dropped"] = clientDropped
	p["client.put_p99_ms"], p["client.get_p99_ms"] = supported(put, 0.99), supported(get, 0.99)
	if sp.blocking() {
		e["put_p99_ms"], e["get_p99_ms"] = p["client.put_p99_ms"], p["client.get_p99_ms"]
	}

	frames := delta("flasks_msg_sent_total")
	p["wire.frames_per_op"] = frames / ok
	if frames > 0 {
		p["wire.bytes_per_frame"] = delta("flasks_wire_encode_bytes_total") / frames
	}
	p["transport.send_errors"] = delta("flasks_transport_send_errors_total")
	p["transport.write_syscalls_per_op"] = procDelta(func(p procSample) float64 { return p.writeCalls }) / ok

	p["core.relayed_per_op"] = delta("flasks_requests_relayed_total") / ok
	p["core.dup_suppressed_per_op"] = delta("flasks_duplicates_suppressed_total") / ok
	p["core.coalesced_per_op"] = delta("flasks_coalesced_puts_total") / ok
	p["core.mailbox_dropped"] = delta("flasks_mailbox_dropped_total")
	p["core.shard_mailbox_dropped"] = delta("flasks_shard_mailbox_dropped_total")
	histDelta := func(name string, keep func(map[string]string) bool) histogram {
		return after.hist(name, keep).sub(before.hist(name, keep))
	}
	p["core.tick_p99_ms"] = histDelta("flasks_tick_duration_seconds", nil).quantile(0.99) * 1e3
	p["core.shard_tick_p99_ms"] = histDelta("flasks_shard_tick_duration_seconds", nil).quantile(0.99) * 1e3

	p["store.segments"] = after.sum("flasks_store_segments")
	p["store.live_mb"] = after.sum("flasks_store_live_bytes") / 1e6
	p["store.dead_mb"] = after.sum("flasks_store_dead_bytes") / 1e6
	p["store.compaction_passes"] = delta("flasks_store_compaction_passes_total")
	p["store.disk_bytes_per_user_byte"] = float64(disk) / float64(preloaded+t.ackedBytes)
	p["store.disk_write_bytes_per_op"] = procDelta(func(p procSample) float64 { return p.writeBytes }) / ok

	if sp.resp {
		setGet := func(l map[string]string) bool { return l["cmd"] == "set" || l["cmd"] == "get" }
		cmds := histDelta("flasks_resp_command_duration_seconds", setGet)
		p["resp.cmd_p50_ms"] = cmds.quantile(0.50) * 1e3
		p["resp.cmd_p99_ms"] = cmds.quantile(0.99) * 1e3
		all := sortedMs(append(append([]time.Duration{}, t.putLat...), t.getLat...))
		p["resp.socket_overhead_us"] = (supported(all, 0.50) - p["resp.cmd_p50_ms"]) * 1e3
		p["resp.errors"] = delta("flasks_resp_command_errors_total")
	}

	nodes := float64(clusterNodes)
	p["antientropy.digest_bytes_per_s"] = delta("flasks_antientropy_digest_bytes_total") / window
	p["antientropy.pushed_objects"] = delta("flasks_antientropy_pushed_objects_total")
	p["antientropy.msgs_per_node_per_s"] = delta("flasks_antientropy_sent_total") / nodes / window
	p["pss.msgs_per_node_per_s"] = delta("flasks_pss_sent_total") / nodes / window
	p["slicing.msgs_per_node_per_s"] = delta("flasks_slice_sent_total") / nodes / window
	p["slicing.flaps"] = 0 // a run with flaps yields no result

	for _, ps := range after.proc {
		p["process.rss_mb_max"] = max(p["process.rss_mb_max"], ps.hwmKB/1024)
	}
	p["process.ctx_switches_per_op"] = procDelta(func(p procSample) float64 { return p.ctxSwitch }) / ok
}
