package dataflasks_test

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dataflasks"
)

// copyTree copies the regular files under src to dst, as they are now.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatalf("copy %s: %v", src, err)
	}
}

// TestInlinePutLive: over loopback TCP, a client that writes one put and
// waits for its ack before the next makes a paced stream, so once more
// than 64 of its frames in a row arrived alone its puts run on the entry
// node's read loop. Every acked put is in the node's log by then: the
// data directory copied while the node still runs — what killing the
// process leaves on disk — restarts holding all of them. (The store
// syncs before it returns, so the ack also follows the fsync; no test
// here can pull the power to show that.) A client with 32 puts in flight
// writes frames in bursts, so its puts are almost never run inline.
func TestInlinePutLive(t *testing.T) {
	cfg := dataflasks.Config{Slices: 1, Slicer: dataflasks.StaticSlicer, SystemSize: 1, Fsync: true}
	start := func(dir string) *dataflasks.Node {
		t.Helper()
		node, err := dataflasks.StartNode(dataflasks.NodeConfig{
			ID: 1, Bind: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", DataDir: dir,
			RoundPeriod: 20 * time.Millisecond, Config: cfg,
		})
		if err != nil {
			t.Fatalf("StartNode: %v", err)
		}
		t.Cleanup(func() { node.Close() })
		return node
	}
	connect := func(node *dataflasks.Node) *dataflasks.Client {
		t.Helper()
		cl, err := dataflasks.ConnectClient("127.0.0.1:0", []string{fmt.Sprintf("1@%s", node.Addr())}, cfg)
		if err != nil {
			t.Fatalf("ConnectClient: %v", err)
		}
		t.Cleanup(cl.Close)
		return cl
	}
	inlinePuts := func(node *dataflasks.Node) float64 {
		t.Helper()
		return scrapeCounters(t, []*dataflasks.Node{node}, "flasks_inline_puts_total")[0]["flasks_inline_puts_total"]
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	value := []byte("durable")

	dir := t.TempDir()
	node := start(dir)
	const blocking = 300
	blocker := connect(node)
	for i := 0; i < blocking; i++ {
		if err := blocker.Put(ctx, fmt.Sprintf("b%d", i), 1, value); err != nil {
			t.Fatalf("blocking put %d: %v", i, err)
		}
	}
	if got := inlinePuts(node); got < blocking/2 {
		t.Errorf("flasks_inline_puts_total = %v after %d blocking puts, want at least %d", got, blocking, blocking/2)
	}
	killed := t.TempDir()
	copyTree(t, dir, killed)

	const waves, inFlight = 20, 32
	before := inlinePuts(node)
	pipeliner := connect(node)
	for w := 0; w < waves; w++ {
		ops := make([]*dataflasks.Op, inFlight)
		for i := range ops {
			ops[i] = pipeliner.PutAsync(fmt.Sprintf("p%d-%d", w, i), 1, value)
		}
		for i, op := range ops {
			if err := op.Wait(ctx); err != nil {
				t.Fatalf("pipelined put %d of wave %d: %v", i, w, err)
			}
		}
	}
	if got := inlinePuts(node) - before; got > waves*inFlight/100 {
		t.Errorf("%v of %d puts with %d in flight ran inline, want at most 1%%", got, waves*inFlight, inFlight)
	}

	restarted := start(killed)
	reader := connect(restarted)
	for i := 0; i < blocking; i++ {
		got, err := reader.Get(ctx, fmt.Sprintf("b%d", i), 1)
		if err != nil || string(got) != string(value) {
			t.Fatalf("acked put b%d after the kill and restart: %q, %v", i, got, err)
		}
	}
}
