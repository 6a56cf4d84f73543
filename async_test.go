package dataflasks_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"dataflasks"
	"dataflasks/internal/transport"
	"dataflasks/internal/wire"
)

// startStaticCluster boots a cluster whose nodes know their slice
// immediately (static slicer), so async tests spend their budget on
// the client API rather than slicing convergence.
func startStaticCluster(t *testing.T, n, slices int) *dataflasks.Cluster {
	t.Helper()
	c, err := dataflasks.NewCluster(n, dataflasks.Config{
		Slices:     slices,
		SystemSize: n,
		Slicer:     dataflasks.StaticSlicer,
		Seed:       7,
	}, dataflasks.WithRoundPeriod(5*time.Millisecond))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(c.Stop)
	return c
}

// TestPipelinedFuturesRace floods one client with hundreds of
// concurrent in-flight operations and waits for them in shuffled
// order. Run with -race (CI does): it exercises the Op handle's
// cross-goroutine completion handoff.
func TestPipelinedFuturesRace(t *testing.T) {
	c := startStaticCluster(t, 12, 2)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	time.Sleep(200 * time.Millisecond) // let views fill

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const ops = 200
	puts := make([]*dataflasks.Op, 0, ops)
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("pipe%04d", i)
		puts = append(puts, cl.PutAsync(key, 1, []byte(key),
			dataflasks.WithTimeout(250*time.Millisecond), dataflasks.WithRetries(20)))
	}
	// Shuffled completions: Wait order is decoupled from issue order.
	rng := rand.New(rand.NewPCG(1, 2))
	rng.Shuffle(len(puts), func(i, j int) { puts[i], puts[j] = puts[j], puts[i] })
	for _, op := range puts {
		if err := op.Wait(ctx); err != nil {
			t.Fatalf("pipelined put: %v", err)
		}
		if op.Acks() < 1 || op.Err() != nil {
			t.Fatalf("completed put: acks=%d err=%v", op.Acks(), op.Err())
		}
	}

	gets := make([]*dataflasks.Op, 0, ops)
	for i := 0; i < ops; i++ {
		gets = append(gets, cl.GetAsync(fmt.Sprintf("pipe%04d", i), 1,
			dataflasks.WithTimeout(250*time.Millisecond), dataflasks.WithRetries(20)))
	}
	rng.Shuffle(len(gets), func(i, j int) { gets[i], gets[j] = gets[j], gets[i] })
	for _, op := range gets {
		if err := op.Wait(ctx); err != nil {
			t.Fatalf("pipelined get: %v", err)
		}
		if len(op.Value()) == 0 {
			t.Fatal("pipelined get returned no value")
		}
	}
	if n := cl.Pending(); n != 0 {
		t.Errorf("pending after all futures resolved = %d", n)
	}
}

// TestPerOpOptionsEndToEnd drives WithAcks / WithFireAndForget /
// WithTimeout through a live cluster.
func TestPerOpOptionsEndToEnd(t *testing.T) {
	c := startStaticCluster(t, 12, 2)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	time.Sleep(300 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// WithAcks(2): two distinct replicas must confirm.
	op := cl.PutAsync("opt-acks", 1, []byte("v"),
		dataflasks.WithAcks(2), dataflasks.WithTimeout(300*time.Millisecond), dataflasks.WithRetries(20))
	if err := op.Wait(ctx); err != nil {
		t.Fatalf("WithAcks(2) put: %v", err)
	}
	if op.Acks() < 2 {
		t.Fatalf("acks = %d, want >= 2", op.Acks())
	}

	// WithFireAndForget resolves instantly...
	ff := cl.PutAsync("opt-ff", 1, []byte("v"), dataflasks.WithFireAndForget())
	select {
	case <-ff.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("fire-and-forget future did not resolve instantly")
	}
	if ff.Err() != nil || ff.Acks() != 0 {
		t.Fatalf("fire-and-forget: err=%v acks=%d", ff.Err(), ff.Acks())
	}
	// ...and the write still lands (read it back with retries).
	if _, err := cl.Get(ctx, "opt-ff", 1,
		dataflasks.WithTimeout(300*time.Millisecond), dataflasks.WithRetries(20)); err != nil {
		t.Fatalf("fire-and-forget write never landed: %v", err)
	}
}

// TestTimeoutGivesEachAttemptItsDuration: the client counts an attempt's
// time in ticks of its period (500 ms for ConnectClient), from the tick
// the attempt started in. An unanswered attempt of WithTimeout(one
// period) still runs at least that period wherever in the tick it
// started, not just to the next tick, which may come at once: a request
// to a live member cut short that way would evict the member as dead.
func TestTimeoutGivesEachAttemptItsDuration(t *testing.T) {
	silent, err := transport.ListenTCP(1, "127.0.0.1:0", "", transport.TCPConfig{Codec: wire.BinaryCodec()}, func(transport.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	cl, err := dataflasks.ConnectClient("127.0.0.1:0", []string{"1@" + silent.Addr()}, dataflasks.Config{Slices: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const d = 500 * time.Millisecond // ConnectClient's period
	for i, pause := range []time.Duration{0, 170 * time.Millisecond, 340 * time.Millisecond} {
		time.Sleep(pause) // start the attempts at different points of a tick
		start := time.Now()
		err := cl.Put(ctx, "k", 1, []byte("v"), dataflasks.WithTimeout(d), dataflasks.WithRetries(0))
		took := time.Since(start)
		if !errors.Is(err, dataflasks.ErrTimeout) {
			t.Fatalf("put %d to a silent node: %v, want a timeout", i, err)
		}
		if took < d || took > 2*d+200*time.Millisecond {
			t.Errorf("put %d timed out after %v, want between %v and about %v", i, took, d, 2*d)
		}
	}
}

// TestDeleteEndToEnd puts, deletes, and verifies the object is gone
// from every replica.
func TestDeleteEndToEnd(t *testing.T) {
	c := startStaticCluster(t, 12, 2)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	time.Sleep(300 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	retry := []dataflasks.OpOption{
		dataflasks.WithTimeout(300 * time.Millisecond), dataflasks.WithRetries(20),
	}

	if err := cl.Put(ctx, "doomed", 1, []byte("x"), retry...); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := cl.Delete(ctx, "doomed", 1, retry...); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	// The delete floods every replica; poll until the last copy is
	// gone (intra-phase deletes propagate within a few rounds). A
	// delete can race the tail of the put's own flood — a late put
	// relay re-stores the object on a node the delete already passed —
	// so, like a real client under eventual semantics, re-issue the
	// delete if copies persist.
	deadline := time.Now().Add(10 * time.Second)
	for tries := 0; c.ReplicaCount("doomed", 1) > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d replicas still hold the deleted object", c.ReplicaCount("doomed", 1))
		}
		time.Sleep(20 * time.Millisecond)
		if tries++; tries%50 == 0 { // every ~1s of persistence
			if err := cl.Delete(ctx, "doomed", 1, retry...); err != nil {
				t.Fatalf("re-issued Delete: %v", err)
			}
		}
	}
}

// TestPutBatchEndToEnd bulk-writes across slices through the batched
// wire path and reads everything back.
func TestPutBatchEndToEnd(t *testing.T) {
	c := startStaticCluster(t, 12, 2)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	time.Sleep(300 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	retry := []dataflasks.OpOption{
		dataflasks.WithTimeout(300 * time.Millisecond), dataflasks.WithRetries(20),
	}

	objs := make([]dataflasks.Object, 0, 64)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("bulk%04d", i)
		objs = append(objs, dataflasks.Object{Key: key, Version: 1, Value: []byte(key)})
	}
	if err := cl.PutBatch(ctx, objs, retry...); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	for _, o := range objs {
		got, err := cl.Get(ctx, o.Key, 1, retry...)
		if err != nil {
			t.Fatalf("Get %s after batch: %v", o.Key, err)
		}
		if string(got) != o.Key {
			t.Fatalf("Get %s = %q", o.Key, got)
		}
	}
}

// TestCancelFreesPendingOp pins the pending-op leak fix: a blocking
// call abandoned by its context must remove the op from the core's
// table immediately, not at retry-budget exhaustion.
func TestCancelFreesPendingOp(t *testing.T) {
	c := startStaticCluster(t, 3, 1)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired
	// A get for a key nobody holds would otherwise pend for the whole
	// default retry budget (~80 ticks).
	if _, err := cl.Get(ctx, "never-stored", 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Get with canceled ctx: %v", err)
	}
	// Cancel is enqueued behind the op start on the client loop;
	// Pending is enqueued after both, so 0 means the table was freed.
	if n := cl.Pending(); n != 0 {
		t.Fatalf("pending after context cancel = %d, want 0", n)
	}

	// Explicit Op.Cancel behaves the same and resolves the future.
	op := cl.GetAsync("never-stored-2", 1)
	if err := op.Err(); !errors.Is(err, dataflasks.ErrInFlight) {
		t.Fatalf("Err before completion = %v, want ErrInFlight", err)
	}
	op.Cancel()
	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	if err := op.Wait(wctx); !errors.Is(err, dataflasks.ErrCanceled) {
		t.Fatalf("canceled op Wait = %v, want ErrCanceled", err)
	}
	if n := cl.Pending(); n != 0 {
		t.Fatalf("pending after Op.Cancel = %d, want 0", n)
	}
}

func TestClosedClientFailsFast(t *testing.T) {
	c := startStaticCluster(t, 3, 1)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	cl.Close()
	ctx := context.Background()
	if err := cl.Put(ctx, "k", 1, nil); !errors.Is(err, dataflasks.ErrClientClosed) {
		t.Errorf("Put on closed client: %v", err)
	}
	op := cl.GetAsync("k", 1)
	if err := op.Wait(ctx); !errors.Is(err, dataflasks.ErrClientClosed) {
		t.Errorf("async op on closed client: %v", err)
	}
	if cl.Pending() != 0 {
		t.Error("closed client reports pending ops")
	}
}

func TestPutReservedVersionFails(t *testing.T) {
	c := startStaticCluster(t, 3, 1)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if err := cl.Put(context.Background(), "k", dataflasks.Latest, nil); err == nil {
		t.Error("Put with the reserved version succeeded")
	}
	if err := cl.PutBatch(context.Background(), []dataflasks.Object{
		{Key: "k", Version: dataflasks.Latest},
	}); err == nil {
		t.Error("PutBatch with the reserved version succeeded")
	}
}

// --- ParseSeed / ConnectClient error paths ----------------------------------

func TestParseSeed(t *testing.T) {
	id, addr, err := dataflasks.ParseSeed("42@10.0.0.1:7001")
	if err != nil || id != 42 || addr != "10.0.0.1:7001" {
		t.Fatalf("ParseSeed = (%v, %q, %v)", id, addr, err)
	}
	for _, bad := range []string{
		"",                         // empty
		"10.0.0.1:7001",            // no id separator
		"@10.0.0.1:7001",           // empty id
		"42@",                      // empty address
		"abc@10.0.0.1:7001",        // non-numeric id
		"-1@10.0.0.1:7001",         // negative id
		"99999999999999999999@h:1", // id overflows 32 bits
	} {
		if _, _, err := dataflasks.ParseSeed(bad); err == nil {
			t.Errorf("ParseSeed(%q) succeeded, want error", bad)
		}
	}
}

func TestConnectClientErrorPaths(t *testing.T) {
	if _, err := dataflasks.ConnectClient("127.0.0.1:0", nil, dataflasks.Config{}); err == nil {
		t.Error("ConnectClient with no seeds succeeded")
	}
	if _, err := dataflasks.ConnectClient("127.0.0.1:0", []string{"not-a-seed"}, dataflasks.Config{}); err == nil {
		t.Error("ConnectClient with a malformed seed succeeded")
	}
	if _, err := dataflasks.ConnectClient("not-a-bind-address", []string{"1@127.0.0.1:7001"}, dataflasks.Config{}); err == nil {
		t.Error("ConnectClient with an unbindable address succeeded")
	}
	if !strings.Contains(fmt.Sprint(mustErr(t)), "id@host:port") {
		t.Error("seed parse error does not explain the expected format")
	}
}

func mustErr(t *testing.T) error {
	t.Helper()
	_, _, err := dataflasks.ParseSeed("oops")
	if err == nil {
		t.Fatal("ParseSeed(oops) succeeded")
	}
	return err
}
