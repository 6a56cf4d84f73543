package lab

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"dataflasks"
	"dataflasks/internal/resp"
)

// RESPRow reports one driver-shape measurement of the E16 experiment.
type RESPRow struct {
	// Mode is "resp-blocking", "resp-pipelined" or "native-pipelined".
	Mode string
	// Ops is the number of SETs driven; OK/Failed split the replies.
	Ops, OK, Failed int
	// Elapsed is wall-clock from first issue to last reply.
	Elapsed time.Duration
	// OpsPerSec is Ops over Elapsed.
	OpsPerSec float64
	// Speedup is the resp-blocking row's Elapsed over this one's.
	Speedup float64
}

// RESPComparison is experiment E16: an in-process DataFlasks cluster
// with LAN-model message latency serves a live RESP gateway on
// loopback TCP, and the same SET workload is driven three ways — one
// command per round trip (the naive Redis client loop), the whole
// batch pipelined down one connection (what redis-benchmark -P does),
// and the native future-based client as the no-RESP-framing reference.
// The pipelined RESP driver exercises the gateway's overlapping
// dispatch + in-order completion queue; the per-message LAN delay is
// what makes the blocking baseline pay a real round trip per command.
func RESPComparison(n, slices, ops int, period time.Duration, seed uint64) ([]RESPRow, error) {
	cluster, err := dataflasks.NewCluster(n,
		dataflasks.Config{Slices: slices, Seed: seed},
		dataflasks.WithRoundPeriod(period),
		dataflasks.WithLatency(dataflasks.LANLatency()))
	if err != nil {
		return nil, err
	}
	if err := cluster.Start(); err != nil {
		return nil, err
	}
	defer cluster.Stop()

	cl, err := cluster.NewClient()
	if err != nil {
		return nil, err
	}
	srv := resp.NewServer(cl, resp.Config{MaxInflight: 1024})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	if err := warmUp(cl, slices); err != nil {
		return nil, err
	}

	payload := []byte("resp-bench-payload")
	rows := make([]RESPRow, 0, 3)

	blocking, err := driveRESPBlocking(addr.String(), ops, payload)
	if err != nil {
		return nil, err
	}
	rows = append(rows, blocking)

	pipelined, err := driveRESPPipelined(addr.String(), ops, payload)
	if err != nil {
		return nil, err
	}
	rows = append(rows, pipelined)

	rows = append(rows, driveNative(cl, ops, payload))
	for i := range rows {
		if rows[i].Elapsed > 0 {
			rows[i].Speedup = float64(blocking.Elapsed) / float64(rows[i].Elapsed)
		}
	}
	return rows, nil
}

func runRESP(w io.Writer, p Params) Report {
	title(w, "E16: RESP gateway — blocking vs pipelined RESP vs native futures (LAN model)")
	n, slices, ops, period := 40, 4, 400, 30*time.Millisecond
	if p.Quick {
		n, slices, ops, period = 24, 3, 200, 25*time.Millisecond
	}
	rows, err := RESPComparison(n, slices, ops, period, p.Seed)
	if err != nil {
		return Report{Broken: []string{err.Error()}}
	}
	fmt.Fprintf(w, "%18s %6s %6s %6s %14s %12s %9s\n",
		"mode", "ops", "ok", "fail", "elapsed", "ops/s", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%18s %6d %6d %6d %14s %12.0f %8.1fx\n",
			r.Mode, r.Ops, r.OK, r.Failed, r.Elapsed.Round(time.Millisecond),
			r.OpsPerSec, r.Speedup)
	}
	return Report{rows, RESPGate(rows)}
}

// RESPGate is E16's: every command is answered, at most one in twenty
// with an error (epidemic routing is probabilistic: a stray failure is
// not a regression, a failure rate is), and pipelined RESP — every op
// overlapped through the gateway's completion queue — finishes >= 5x
// sooner than the loop that pays a LAN round trip per command.
func RESPGate(rows []RESPRow) []string {
	var g gate
	for _, r := range rows {
		g.must(r.OK+r.Failed == r.Ops, "%s: %d ok + %d failed != %d ops", r.Mode, r.OK, r.Failed, r.Ops)
		g.must(r.Failed <= r.Ops/20, "%s: %d of %d commands failed, want <= 5%%", r.Mode, r.Failed, r.Ops)
		g.must(r.Mode != "resp-pipelined" || r.Speedup >= 5, "pipelined RESP speedup %.1fx over blocking, want >= 5x", r.Speedup)
	}
	return g
}

// warmUp waits until writes reach every slice: epidemic routing needs
// converged views before per-op latency is meaningful. One probe per
// slice (well past it, by key spread) must succeed in a single sweep.
func warmUp(cl *dataflasks.Client, slices int) error {
	deadline := time.Now().Add(60 * time.Second)
	probes := slices * 4
	for attempt := 0; ; attempt++ {
		ok := true
		for i := 0; i < probes; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			err := cl.Put(ctx, fmt.Sprintf("warm%04d", i), uint64(attempt+1), []byte("w"))
			cancel()
			if err != nil {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lab: cluster failed to converge for the RESP bench")
		}
	}
}

// setCmd renders one SET as a RESP multibulk command.
func setCmd(dst []byte, key string, value []byte) []byte {
	dst = append(dst, "*3\r\n$3\r\nSET\r\n$"...)
	dst = strconv.AppendInt(dst, int64(len(key)), 10)
	dst = append(dst, "\r\n"...)
	dst = append(dst, key...)
	dst = append(dst, "\r\n$"...)
	dst = strconv.AppendInt(dst, int64(len(value)), 10)
	dst = append(dst, "\r\n"...)
	dst = append(dst, value...)
	dst = append(dst, "\r\n"...)
	return dst
}

// readReply consumes one RESP reply and reports whether it was an
// error reply.
func readReply(br *bufio.Reader) (isErr bool, err error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return false, err
	}
	if len(line) < 3 {
		return false, fmt.Errorf("lab: short RESP reply %q", line)
	}
	body := line[1 : len(line)-2]
	switch line[0] {
	case '+', ':':
		return false, nil
	case '-':
		return true, nil
	case '$':
		n, convErr := strconv.Atoi(body)
		if convErr != nil {
			return false, convErr
		}
		if n < 0 {
			return false, nil // null bulk
		}
		if _, err := io.CopyN(io.Discard, br, int64(n)+2); err != nil {
			return false, err
		}
		return false, nil
	case '*':
		n, convErr := strconv.Atoi(body)
		if convErr != nil {
			return false, convErr
		}
		for i := 0; i < n; i++ {
			if _, err := readReply(br); err != nil {
				return false, err
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("lab: unknown RESP reply type %q", line[0])
	}
}

// driveRESPBlocking issues one SET per round trip — write, wait for
// the reply, repeat — the shape every non-pipelining Redis client
// produces.
func driveRESPBlocking(addr string, ops int, payload []byte) (RESPRow, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return RESPRow{}, err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	row := RESPRow{Mode: "resp-blocking", Ops: ops}
	var cmd []byte
	start := time.Now()
	for i := 0; i < ops; i++ {
		cmd = setCmd(cmd[:0], fmt.Sprintf("respblk%06d", i), payload)
		if _, err := conn.Write(cmd); err != nil {
			return RESPRow{}, err
		}
		isErr, err := readReply(br)
		if err != nil {
			return RESPRow{}, err
		}
		if isErr {
			row.Failed++
		} else {
			row.OK++
		}
	}
	finishRow(&row, start)
	return row, nil
}

// driveRESPPipelined writes every SET down the connection before
// reading any reply — RESP pipelining, no client-side changes beyond
// buffering.
func driveRESPPipelined(addr string, ops int, payload []byte) (RESPRow, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return RESPRow{}, err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	row := RESPRow{Mode: "resp-pipelined", Ops: ops}
	start := time.Now()

	writeErr := make(chan error, 1)
	go func() {
		bw := bufio.NewWriterSize(conn, 64<<10)
		var cmd []byte
		for i := 0; i < ops; i++ {
			cmd = setCmd(cmd[:0], fmt.Sprintf("resppipe%06d", i), payload)
			if _, err := bw.Write(cmd); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- bw.Flush()
	}()

	for i := 0; i < ops; i++ {
		isErr, err := readReply(br)
		if err != nil {
			return RESPRow{}, err
		}
		if isErr {
			row.Failed++
		} else {
			row.OK++
		}
	}
	if err := <-writeErr; err != nil {
		return RESPRow{}, err
	}
	finishRow(&row, start)
	return row, nil
}

// driveNative is the reference: the same workload through the
// future-based client API directly, no RESP framing or TCP hop.
func driveNative(cl *dataflasks.Client, ops int, payload []byte) RESPRow {
	row := RESPRow{Mode: "native-pipelined", Ops: ops}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	futures := make([]*dataflasks.Op, 0, ops)
	for i := 0; i < ops; i++ {
		futures = append(futures, cl.PutAsync(fmt.Sprintf("respnat%06d", i), 1, payload))
	}
	for _, op := range futures {
		if err := op.Wait(ctx); err != nil {
			row.Failed++
		} else {
			row.OK++
		}
	}
	finishRow(&row, start)
	return row
}

func finishRow(row *RESPRow, start time.Time) {
	row.Elapsed = time.Since(start)
	if row.Elapsed > 0 {
		row.OpsPerSec = float64(row.Ops) / row.Elapsed.Seconds()
	}
}
