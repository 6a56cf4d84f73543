package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dataflasks"
)

const (
	// Every op is bounded: a lost request costs one 2 s attempt and one
	// retry, never the client's default 4 x 10 s.
	opTimeout = 2 * time.Second
	opRetries = 1
	// warmupOps run untimed before the window, so dialing, first-touch
	// allocation and the nodes' learning of the client's address are
	// not in the numbers.
	warmupOps = 2000
	// readbackSample is how many acknowledged writes are read back
	// after a write workload.
	readbackSample = 1000
	// preloadBatch is the number of records per preload PutBatch: each
	// batch is one wire message and one group commit per slice.
	preloadBatch = 500
)

var opOpts = []dataflasks.OpOption{dataflasks.WithTimeout(opTimeout), dataflasks.WithRetries(opRetries)}

// tally is what the lanes measured in the timed window.
type tally struct {
	putLat, getLat []time.Duration // verified-OK ops only
	attempted      int
	failed         int
	wrong          int // failed ops whose reply was wrong or missing
	retries        int
	firstErr       error
	// ackedBytes totals the value bytes of acknowledged writes.
	ackedBytes int64
	// last holds, per key, the newest acknowledged version of each lane
	// that wrote it; pairs counts every acknowledged (key, version).
	last  map[string][]uint64
	pairs int
	// window is first issue to last completion (or the wall cap), and
	// clientCPU this process's user + system time over it.
	window, clientCPU time.Duration
}

func (t *tally) ok() int { return len(t.putLat) + len(t.getLat) }

// record books one finished op. Acknowledged writes are remembered for
// the read-back whether timed or not; everything else counts only in
// the timed window.
func (t *tally) record(o op, lat time.Duration, retries int, err error, timed bool, size int) {
	if o.put && err == nil {
		// One lane's versions of one key only grow: keep the newest.
		// Every written key is kept, not a sample: the read-back must
		// know each lane's last write to whatever key it picks.
		if v := t.last[o.key]; v != nil {
			v[0] = o.version
		} else {
			if t.last == nil {
				t.last = map[string][]uint64{}
			}
			t.last[o.key] = []uint64{o.version}
		}
		t.pairs++
		t.ackedBytes += int64(size)
	}
	if err != nil && t.firstErr == nil {
		t.firstErr = err
	}
	if !timed {
		return
	}
	t.attempted++
	t.retries += retries
	switch {
	case err != nil:
		t.failed++
		if errors.Is(err, errWrong) {
			t.wrong++
		}
	case o.put:
		t.putLat = append(t.putLat, lat)
	default:
		t.getLat = append(t.getLat, lat)
	}
}

func (t *tally) merge(o *tally) {
	t.putLat = append(t.putLat, o.putLat...)
	t.getLat = append(t.getLat, o.getLat...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.retries += o.retries
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.ackedBytes += o.ackedBytes
	t.pairs += o.pairs
	if t.last == nil {
		t.last = map[string][]uint64{}
	}
	for key, versions := range o.last {
		t.last[key] = append(t.last[key], versions...)
	}
}

// preload stores the spec's records through the native client in
// batches, then waits until both replicas of every record report it
// stored. It returns the value bytes written.
func preload(ctx context.Context, c *cluster, cl *dataflasks.Client, sp spec, seed uint64) (int64, error) {
	if sp.records == 0 {
		return 0, nil
	}
	for base := 0; base < sp.records; base += preloadBatch {
		objs := preloadObjects(sp, seed, base, min(base+preloadBatch, sp.records))
		if err := cl.PutBatch(ctx, objs, opOpts...); err != nil {
			return 0, fmt.Errorf("preload batch at %d: %w", base, err)
		}
	}
	// An ack means one replica stored the batch; the intra-slice relay
	// delivers the other copy. The gauge is republished once per round.
	want := float64(sp.records * clusterNodes / clusterSlices)
	for {
		snap, err := c.snapshot()
		if err != nil {
			return 0, err
		}
		if snap.sum("flasks_stored_objects") >= want {
			break
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("preload: %v of %v replicas stored: %w", snap.sum("flasks_stored_objects"), want, ctx.Err())
		case <-time.After(gossipPeriod / 2):
		}
	}
	return int64(sp.records) * int64(sp.valueSize), nil
}

// preloadObjects builds records [from, to) of sp's preloaded space.
func preloadObjects(sp spec, seed uint64, from, to int) []dataflasks.Object {
	objs := make([]dataflasks.Object, 0, to-from)
	for i := from; i < to; i++ {
		key := recordKey(seed, i)
		val := make([]byte, sp.valueSize)
		fillValue(val, seed, key, preloadVersion)
		objs = append(objs, dataflasks.Object{Key: key, Version: preloadVersion, Value: val})
	}
	return objs
}

// checkGet verifies one read reply against what the stream can have
// written: the bytes must be the value of the version they claim, and
// that version must be one some lane has issued.
func checkGet(val []byte, storeVersion uint64, native bool, seed uint64, o op, sp spec) error {
	v, err := checkValue(val, seed, o.key, sp.valueSize)
	if err != nil {
		return err
	}
	// The gateway mints its own store versions; only the native path
	// stores under the version the value embeds.
	if native && storeVersion != v {
		return fmt.Errorf("%w: get %q: stored under v%d but value says v%d", errWrong, o.key, storeVersion, v)
	}
	if v != preloadVersion && v>>16 == 0 {
		return fmt.Errorf("%w: get %q: version %d was never written", errWrong, o.key, v)
	}
	return nil
}

// lane is one closed loop with its own deterministic op stream. run
// issues ops while more() allows and returns once none is in flight;
// only a timed run counts into the tally's window numbers.
type lane interface {
	run(ctx context.Context, timed bool, more func() bool)
	tally() *tally
}

// nativeLane is one caller blocked on a native client: issue, wait for
// the reply, verify, repeat.
type nativeLane struct {
	cl   *dataflasks.Client
	sp   spec
	seed uint64
	gen  *opGen
	val  []byte
	t    tally
}

func newNativeLane(cl *dataflasks.Client, sp spec, seed uint64, i int) *nativeLane {
	return &nativeLane{cl: cl, sp: sp, seed: seed, gen: newOpGen(sp, seed, i), val: make([]byte, sp.valueSize)}
}

func (l *nativeLane) tally() *tally { return &l.t }

func (l *nativeLane) run(ctx context.Context, timed bool, more func() bool) {
	for more() && ctx.Err() == nil {
		o := l.gen.next()
		var fut *dataflasks.Op
		t0 := time.Now()
		if o.put {
			fillValue(l.val, l.seed, o.key, o.version)
			fut = l.cl.PutAsync(o.key, o.version, l.val, opOpts...)
		} else {
			fut = l.cl.GetLatestAsync(o.key, opOpts...)
		}
		err := fut.Wait(ctx)
		lat := time.Since(t0)
		if err != nil && ctx.Err() != nil {
			fut.Cancel() // cut by the wall cap: do not leave it pending
		}
		if err == nil && !o.put {
			err = checkGet(fut.Value(), fut.Version(), true, l.seed, o, l.sp)
		}
		l.t.record(o, lat, fut.Retries(), err, timed, l.sp.valueSize)
	}
}

// selfCPU is this process's user + system CPU time so far (0 if the
// kernel will not say).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runLanes is the skeleton both drivers share: every lane runs warm
// untimed ops, the caller takes its "before" snapshot, the lanes share
// the timed budget of ops, and the tallies are merged. Lanes still busy
// at the wall cap stop; what they have in flight and what was never
// issued counts as failed.
func runLanes(ctx context.Context, lanes []lane, ops int, wallCap time.Duration, between func() error) (*tally, error) {
	phase := func(ctx context.Context, timed bool, more func(i int) func() bool) {
		var wg sync.WaitGroup
		for i, l := range lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.run(ctx, timed, more(i))
			}()
		}
		wg.Wait()
	}
	warm := (warmupOps + len(lanes) - 1) / len(lanes)
	phase(ctx, false, func(int) func() bool {
		left := warm
		return func() bool { left--; return left >= 0 }
	})
	for _, l := range lanes {
		if err := l.tally().firstErr; err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if err := between(); err != nil {
		return nil, err
	}
	begin := time.Now()
	capped, cancel := context.WithDeadline(ctx, begin.Add(wallCap))
	defer cancel()
	cpu0 := selfCPU()
	var left atomic.Int64
	left.Store(int64(ops))
	phase(capped, true, func(int) func() bool {
		return func() bool { return left.Add(-1) >= 0 }
	})
	total := &tally{window: time.Since(begin), clientCPU: selfCPU() - cpu0}
	for _, l := range lanes {
		total.merge(l.tally())
	}
	if cut := ops - total.attempted; cut > 0 {
		total.attempted, total.failed = ops, total.failed+cut
		if total.firstErr == nil {
			total.firstErr = fmt.Errorf("%d ops not issued before the %v wall cap", cut, wallCap)
		}
	}
	return total, nil
}

// readback re-reads up to readbackSample keys with acknowledged writes,
// each at the exact version acknowledged; a replica that lacks one
// relays the read to its mates, so a miss means no replica holds an
// acknowledged write.
func readback(ctx context.Context, cl *dataflasks.Client, sp spec, seed uint64, last map[string][]uint64) error {
	checked := 0
	for key, versions := range last {
		if checked == readbackSample {
			break
		}
		checked++
		for _, want := range versions {
			val, err := cl.Get(ctx, key, want, opOpts...)
			if err != nil {
				return fmt.Errorf("read-back of acknowledged write: %w", err)
			}
			v, err := checkValue(val, seed, key, sp.valueSize)
			if err != nil {
				return fmt.Errorf("read-back: %w", err)
			}
			if v != want {
				return fmt.Errorf("read-back of %q v%d returned v%d", key, want, v)
			}
		}
	}
	return nil
}

// --- RESP driver -------------------------------------------------------------

// respConn is one pipelined gateway connection.
type respConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func dialRESP(addr string) (*respConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 3*time.Second)
	if err != nil {
		return nil, err
	}
	return &respConn{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), bw: bufio.NewWriterSize(conn, 64<<10)}, nil
}

// command buffers one multibulk command; Flush sends the pipeline.
func (c *respConn) command(args ...[]byte) {
	// Writes to a bufio.Writer report their error again at Flush.
	header := func(kind byte, n int) {
		_ = c.bw.WriteByte(kind)
		_, _ = c.bw.WriteString(strconv.Itoa(n))
		_, _ = c.bw.WriteString("\r\n")
	}
	header('*', len(args))
	for _, a := range args {
		header('$', len(a))
		_, _ = c.bw.Write(a)
		_, _ = c.bw.WriteString("\r\n")
	}
}

// roundTrip flushes the pipeline and reads the next reply.
func (c *respConn) roundTrip() (bulk []byte, status string, isErr bool, err error) {
	if err := c.bw.Flush(); err != nil {
		return nil, "", false, err
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(2*opTimeout + time.Second)); err != nil {
		return nil, "", false, err
	}
	return c.reply()
}

// reply reads one reply: a bulk string's bytes (nil for the null bulk),
// or the text of a status line. isErr marks a "-" reply.
func (c *respConn) reply() (bulk []byte, status string, isErr bool, err error) {
	line, err := c.br.ReadString('\n')
	if err != nil {
		return nil, "", false, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return nil, "", false, fmt.Errorf("resp: malformed reply line %q", line)
	}
	body := line[1 : len(line)-2]
	switch line[0] {
	case '+', ':':
		return nil, body, false, nil
	case '-':
		return nil, body, true, nil
	case '$':
		n, err := strconv.Atoi(body)
		if err != nil || n < -1 {
			return nil, "", false, fmt.Errorf("resp: bad bulk length %q", body)
		}
		if n == -1 {
			return nil, "", false, nil
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(c.br, buf); err != nil {
			return nil, "", false, err
		}
		return buf[:n], "", false, nil
	default:
		return nil, "", false, fmt.Errorf("resp: unexpected reply type %q", line[0])
	}
}

// respLane keeps sp.window commands in flight on one connection: it
// tops the pipeline up, flushes, reads one reply (replies come back in
// order), and repeats. Latency runs from the command's write to its
// reply, so it includes waiting behind the commands ahead of it, as a
// pipelining client sees it.
type respLane struct {
	c        *respConn
	sp       spec
	seed     uint64
	gen      *opGen
	val      []byte
	inflight []respFlight
	t        tally
}

type respFlight struct {
	o  op
	t0 time.Time
}

func newRESPLane(c *respConn, sp spec, seed uint64, i int) *respLane {
	return &respLane{c: c, sp: sp, seed: seed, gen: newOpGen(sp, seed, i), val: make([]byte, sp.valueSize)}
}

func (l *respLane) tally() *tally { return &l.t }

func (l *respLane) run(ctx context.Context, timed bool, more func() bool) {
	// abandon fails everything in flight: after an I/O error the
	// connection's reply order is lost, and so is the connection.
	abandon := func(err error) {
		for _, f := range l.inflight {
			l.t.record(f.o, 0, 0, err, timed, l.sp.valueSize)
		}
		l.inflight = l.inflight[:0]
		l.c.conn.Close()
	}
	for {
		for len(l.inflight) < l.sp.window && more() && ctx.Err() == nil {
			o := l.gen.next()
			if o.put {
				fillValue(l.val, l.seed, o.key, o.version)
				l.c.command([]byte("SET"), []byte(o.key), l.val)
			} else {
				l.c.command([]byte("GET"), []byte(o.key))
			}
			l.inflight = append(l.inflight, respFlight{o, time.Now()})
		}
		if len(l.inflight) == 0 {
			return
		}
		bulk, status, isErr, err := l.c.roundTrip()
		if err != nil {
			abandon(err)
			return
		}
		f := l.inflight[0]
		l.inflight = l.inflight[1:]
		lat := time.Since(f.t0)
		switch {
		case isErr:
			err = fmt.Errorf("resp: %s", status)
		case f.o.put && status != "OK":
			err = fmt.Errorf("resp: SET answered %q", status)
		case !f.o.put && bulk == nil:
			err = fmt.Errorf("%w: resp: GET %q answered null", errWrong, f.o.key)
		case !f.o.put:
			err = checkGet(bulk, 0, false, l.seed, f.o, l.sp)
		}
		l.t.record(f.o, lat, 0, err, timed, l.sp.valueSize)
	}
}

// readbackRESP GETs up to readbackSample keys the lanes SET and requires
// each value to be the last one some lane wrote to that key: two
// connections may write one key, the gateway orders them, and the
// winner is the last write of one of them.
func readbackRESP(c *respConn, sp spec, seed uint64, last map[string][]uint64) error {
	checked := 0
	for key, versions := range last {
		if checked == readbackSample {
			break
		}
		checked++
		c.command([]byte("GET"), []byte(key))
		bulk, status, isErr, err := c.roundTrip()
		if err != nil {
			return err
		}
		if isErr || bulk == nil {
			return fmt.Errorf("read-back GET %q: %q", key, status)
		}
		v, err := checkValue(bulk, seed, key, sp.valueSize)
		if err != nil {
			return fmt.Errorf("read-back: %w", err)
		}
		found := false
		for _, want := range versions {
			found = found || v == want
		}
		if !found {
			return fmt.Errorf("read-back GET %q returned v%d, not the last acknowledged write of any connection", key, v)
		}
	}
	return nil
}
