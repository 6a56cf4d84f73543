package dataflasks_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"dataflasks"
	"dataflasks/internal/core"
	"dataflasks/internal/obs"
	"dataflasks/internal/wire"
)

func scrape(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s%s: %v", addr, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestObsLiveCluster boots a cluster with the observability plane on
// and pins the three live contracts end to end: /readyz flips 503->200
// when the node becomes ready, /metrics serves a conformant exposition,
// and a traced put is reconstructible from the /trace journals of at
// least three nodes.
func TestObsLiveCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("live observability cluster in -short mode")
	}
	const n = 4
	cfg := dataflasks.Config{Slices: 1, SystemSize: n, Seed: 11}

	nodes := make([]*dataflasks.Node, 0, n)
	t.Cleanup(func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	})

	first, err := dataflasks.StartNode(dataflasks.NodeConfig{
		ID: 1, Bind: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0",
		Config: cfg, RoundPeriod: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartNode 1: %v", err)
	}
	nodes = append(nodes, first)
	if first.HTTPAddr() == "" {
		t.Fatal("node started with HTTPAddr but exposes no observability address")
	}

	// The rank slicer cannot place the node before gossip rounds run,
	// so immediately after startup readiness must be refused with a
	// reason.
	if code, body := scrape(t, first.HTTPAddr(), "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("fresh node /readyz = %d %q, want 503", code, body)
	} else if !strings.Contains(body, "not ready") {
		t.Fatalf("/readyz refusal carries no reason: %q", body)
	}

	seed := fmt.Sprintf("1@%s", first.Addr())
	for i := 2; i <= n; i++ {
		nd, err := dataflasks.StartNode(dataflasks.NodeConfig{
			ID: dataflasks.NodeID(i), Bind: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0",
			Seeds: []string{seed}, Config: cfg,
			RoundPeriod: 30 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("StartNode %d: %v", i, err)
		}
		nodes = append(nodes, nd)
	}

	// Every node must eventually report ready once slices are assigned
	// and bootstrap completes.
	deadline := time.Now().Add(20 * time.Second)
	for _, nd := range nodes {
		for {
			code, _ := scrape(t, nd.HTTPAddr(), "/readyz")
			if code == http.StatusOK {
				if !nd.Ready() {
					t.Errorf("node %s serves 200 on /readyz but Ready() is false", nd.ID())
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s never became ready", nd.ID())
			}
			time.Sleep(30 * time.Millisecond)
		}
	}

	// A live scrape must survive the strict exposition validator.
	if code, body := scrape(t, first.HTTPAddr(), "/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	} else if _, err := obs.ParseExposition([]byte(body)); err != nil {
		t.Fatalf("live /metrics fails validation: %v", err)
	}

	cl, err := dataflasks.ConnectClient("127.0.0.1:0", []string{seed}, cfg)
	if err != nil {
		t.Fatalf("ConnectClient: %v", err)
	}
	defer cl.Close()

	const traceID = 0xABCDE
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cl.Put(ctx, "traced-key", 1, []byte("traced"), dataflasks.WithTraceID(traceID)); err != nil {
		t.Fatalf("traced Put: %v", err)
	}

	// The traced put must be reconstructible across the cluster: its
	// trace id has to show up in at least three nodes' journals (entry
	// apply, relays, and the intra-slice copies at later ticks).
	type dump struct {
		Node   uint64 `json:"node"`
		Events []struct {
			Kind    string `json:"kind"`
			TraceID uint64 `json:"trace_id"`
			Key     string `json:"key"`
		} `json:"events"`
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		journaled, applied := 0, 0
		for _, nd := range nodes {
			code, body := scrape(t, nd.HTTPAddr(), fmt.Sprintf("/trace?id=%d", traceID))
			if code != http.StatusOK {
				t.Fatalf("/trace on node %s = %d", nd.ID(), code)
			}
			var d dump
			if err := json.Unmarshal([]byte(body), &d); err != nil {
				t.Fatalf("/trace on node %s is not JSON: %v\n%s", nd.ID(), err, body)
			}
			if len(d.Events) == 0 {
				continue
			}
			journaled++
			for _, ev := range d.Events {
				if ev.TraceID != traceID {
					t.Fatalf("foreign event leaked through ?id= filter on node %s: %+v", nd.ID(), ev)
				}
				if ev.Kind == "put_apply" && ev.Key == "traced-key" {
					applied++
					break
				}
			}
		}
		if journaled >= 3 && applied >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("traced put visible in %d journals (%d applies), want >= 3 journals", journaled, applied)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSharedAnswersLive: a client that keeps many puts and gets in flight
// to one fsyncing node gets its answers in shared frames —
// flasks_shared_answers_total grows — and every op still completes.
func TestSharedAnswersLive(t *testing.T) {
	cfg := dataflasks.Config{Slices: 1, Slicer: dataflasks.StaticSlicer, SystemSize: 1, Fsync: true}
	node, err := dataflasks.StartNode(dataflasks.NodeConfig{
		ID: 1, Bind: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", DataDir: t.TempDir(),
		RoundPeriod: 20 * time.Millisecond, Config: cfg,
	})
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	defer node.Close()
	cl, err := dataflasks.ConnectClient("127.0.0.1:0", []string{fmt.Sprintf("1@%s", node.Addr())}, cfg)
	if err != nil {
		t.Fatalf("ConnectClient: %v", err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const inFlight = 128
	key := func(i int) string { return fmt.Sprintf("burst-%03d", i) }
	var ops []*dataflasks.Op
	for i := 0; i < inFlight; i++ {
		ops = append(ops, cl.PutAsync(key(i), 1, []byte("v")))
	}
	for _, op := range ops {
		if err := op.Wait(ctx); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	ops = ops[:0]
	for i := 0; i < inFlight; i++ {
		ops = append(ops, cl.GetAsync(key(i), 1), cl.PutAsync(key(i), 2, []byte("v2")))
	}
	for _, op := range ops {
		if err := op.Wait(ctx); err != nil {
			t.Fatalf("pipelined op: %v", err)
		}
	}

	_, body := scrape(t, node.HTTPAddr(), "/metrics")
	families, err := obs.ParseExposition([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	f := families["flasks_shared_answers_total"]
	if f == nil || len(f.Samples) == 0 || f.Samples[0].Value <= 0 {
		t.Fatalf("flasks_shared_answers_total = %+v after %d pipelined ops, want > 0", f, 3*inFlight)
	}
}

// TestUnknownFramesCountedLive: frames of a kind the node's wire table
// does not know — reserved kinds and an unassigned one — written by
// hand to a live node's listener are counted by kind in
// flasks_wire_unknown_frames_total, and the node keeps serving.
func TestUnknownFramesCountedLive(t *testing.T) {
	cfg := dataflasks.Config{Slices: 1, Slicer: dataflasks.StaticSlicer, SystemSize: 1}
	node, err := dataflasks.StartNode(dataflasks.NodeConfig{
		ID: 1, Bind: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0",
		RoundPeriod: 20 * time.Millisecond, Config: cfg,
	})
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	defer node.Close()

	conn, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	kinds := []uint16{6, 19, 35, 0xfff0} // reserved (retired), never assigned
	var stream []byte
	for _, kind := range kinds {
		// A frame of a known kind with its kind field rewritten: the
		// decoder reads no further than the header for an unknown kind.
		frame, err := wire.BinaryCodec().Encode(nil, &wire.Envelope{From: 9, To: 1, Msg: &core.MateQuery{}})
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(frame[1:], kind)
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(frame)))
		stream = append(stream, frame...)
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	counted := func() map[string]float64 {
		_, body := scrape(t, node.HTTPAddr(), "/metrics")
		families, err := obs.ParseExposition([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		if f := families["flasks_wire_unknown_frames_total"]; f != nil {
			for _, s := range f.Samples {
				out[s.Labels["kind"]] = s.Value
			}
		}
		return out
	}
	waitFor(t, ctx, 10*time.Millisecond, "every unknown kind counted", func() bool { return len(counted()) == len(kinds) })
	for _, kind := range kinds {
		if got := counted()[fmt.Sprint(kind)]; got != 1 {
			t.Fatalf("flasks_wire_unknown_frames_total{kind=%q} = %v, want 1 (all: %v)", fmt.Sprint(kind), got, counted())
		}
	}

	cl, err := dataflasks.ConnectClient("127.0.0.1:0", []string{fmt.Sprintf("1@%s", node.Addr())}, cfg)
	if err != nil {
		t.Fatalf("ConnectClient: %v", err)
	}
	defer cl.Close()
	if err := cl.Put(ctx, "after-unknown", 1, []byte("v")); err != nil {
		t.Fatalf("put after the unknown frames: %v", err)
	}
	if v, err := cl.Get(ctx, "after-unknown", 1); err != nil || string(v) != "v" {
		t.Fatalf("get after the unknown frames: %q, %v", v, err)
	}
}
