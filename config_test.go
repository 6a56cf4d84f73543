package dataflasks

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dataflasks/internal/core"
	"dataflasks/internal/store"
)

func TestConfigTranslation(t *testing.T) {
	cfg := Config{
		Slices:     7,
		SystemSize: 300,
		Capacity:   2.5,
		PSS:        Newscast,
		Slicer:     SwapSlicer,
	}
	cc := cfg.coreConfig()
	if cc.Slices != 7 || cc.SystemSize != 300 || cc.Capacity != 2.5 {
		t.Errorf("basic fields: %+v", cc)
	}
	if cc.PSS != core.PSSNewscast {
		t.Errorf("PSS = %v", cc.PSS)
	}
	if cc.Slicer != core.SlicerSwap {
		t.Errorf("Slicer = %v", cc.Slicer)
	}

	if (Config{}).coreConfig().PSS != core.PSSCyclon {
		t.Error("default PSS not Cyclon")
	}
	if (Config{Slicer: StaticSlicer}).coreConfig().Slicer != core.SlicerStatic {
		t.Error("static slicer not translated")
	}
	if (Config{DisableAntiEntropy: true}).coreConfig().AntiEntropyEvery != -1 {
		t.Error("DisableAntiEntropy not translated")
	}
	if (Config{}).coreConfig().AntiEntropyEvery != 0 {
		t.Error("anti-entropy should default on (0 → internal default)")
	}
}

func TestClientPutAcksTranslation(t *testing.T) {
	tests := []struct {
		public, internal int
	}{
		{0, 1},   // default: one ack
		{3, 3},   // explicit
		{-1, -1}, // fire-and-forget maps to the client's "no acks" mode
	}
	for _, tt := range tests {
		if got := (Config{PutAcks: tt.public}).clientPutAcks(); got != tt.internal {
			t.Errorf("clientPutAcks(%d) = %d, want %d", tt.public, got, tt.internal)
		}
	}
}

func TestParseSeed(t *testing.T) {
	id, addr, err := ParseSeed("42@10.0.0.1:7000")
	if err != nil || id != 42 || addr != "10.0.0.1:7000" {
		t.Errorf("ParseSeed = %v, %q, %v", id, addr, err)
	}
	for _, bad := range []string{"", "42", "@addr", "42@", "x@addr", "99999999999999@addr"} {
		if _, _, err := ParseSeed(bad); err == nil {
			t.Errorf("ParseSeed(%q) accepted", bad)
		}
	}
}

func TestStartNodeValidation(t *testing.T) {
	if _, err := StartNode(NodeConfig{ID: 0}); err == nil {
		t.Error("id 0 accepted")
	}
	if _, err := StartNode(NodeConfig{ID: 1 << 33}); err == nil {
		t.Error("id beyond 32 bits accepted")
	}
	if _, err := StartNode(NodeConfig{ID: 1, Bind: "127.0.0.1:0", Seeds: []string{"garbage"}}); err == nil {
		t.Error("bad seed accepted")
	}
}

func TestAddAndRemoveNodesWhileRunning(t *testing.T) {
	c, err := NewCluster(10, Config{Slices: 2}, WithRoundPeriod(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	id, err := c.AddNode()
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if len(c.NodeIDs()) != 11 {
		t.Errorf("population = %d", len(c.NodeIDs()))
	}
	if _, err := c.SliceOf(id); err != nil {
		t.Errorf("SliceOf(new): %v", err)
	}
	if err := c.RemoveNode(id); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if err := c.RemoveNode(id); err == nil {
		t.Error("double remove succeeded")
	}
	if _, err := c.SliceOf(id); err == nil {
		t.Error("SliceOf(removed) succeeded")
	}
}

// TestSliceOfWhileRunning polls SliceOf over every node of a running
// cluster while the loops tick and re-claim slices. The claim is served
// from what each loop publishes, so `go test -race` must stay silent;
// reading the live slicer from here is a data race it reports at once.
func TestSliceOfWhileRunning(t *testing.T) {
	c, err := NewCluster(6, Config{Slices: 2}, WithRoundPeriod(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for deadline := time.Now().Add(250 * time.Millisecond); time.Now().Before(deadline); {
		for _, id := range c.NodeIDs() {
			if _, err := c.SliceOf(id); err != nil {
				t.Fatalf("SliceOf(%s): %v", id, err)
			}
		}
	}
}

func TestPutRejectsReservedVersion(t *testing.T) {
	c, err := NewCluster(5, Config{}, WithRoundPeriod(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTimeout(t)
	defer cancel()
	if err := cl.Put(ctx, "k", Latest, []byte("x")); err == nil {
		t.Error("Put with reserved version accepted")
	}
}

// TestOversizedKeyRefusedBeforeSending: a key longer than any replica's
// store accepts fails every write path at once with ErrKeyTooLong and
// nothing reaches the fabric. Sent to the replicas it would be refused
// by each, acknowledged by none, and cost the caller its whole deadline.
// A read of one is the miss no replica needs asking about: ErrNotFound
// (what callers branch on) and ErrKeyTooLong (why) at once.
func TestOversizedKeyRefusedBeforeSending(t *testing.T) {
	// Never started: no gossip, so every fabric send is the client's.
	c, err := NewCluster(3, Config{Slices: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTimeout(t)
	defer cancel()
	long := strings.Repeat("k", store.MaxKeyLen+1)
	batch := []Object{{Key: "fine", Version: 1}, {Key: long, Version: 1}}
	if err := cl.Put(ctx, long, 1, []byte("x")); !errors.Is(err, ErrKeyTooLong) {
		t.Errorf("Put = %v, want ErrKeyTooLong", err)
	}
	if err := cl.PutAsync(long, 1, nil).Err(); !errors.Is(err, ErrKeyTooLong) {
		t.Errorf("PutAsync resolved to %v, want ErrKeyTooLong at once", err)
	}
	if err := cl.PutBatch(ctx, batch); !errors.Is(err, ErrKeyTooLong) {
		t.Errorf("PutBatch = %v, want ErrKeyTooLong", err)
	}
	for _, op := range cl.PutBatchAsync(batch) {
		if err := op.Err(); !errors.Is(err, ErrKeyTooLong) {
			t.Errorf("PutBatchAsync resolved to %v, want ErrKeyTooLong at once", err)
		}
	}
	for name, op := range map[string]*Op{"GetAsync": cl.GetAsync(long, 1), "GetLatestAsync": cl.GetLatestAsync(long)} {
		if err := op.Err(); !errors.Is(err, ErrNotFound) || !errors.Is(err, ErrKeyTooLong) {
			t.Errorf("%s resolved to %v, want ErrNotFound and ErrKeyTooLong at once", name, err)
		}
	}
	if _, err := cl.Get(ctx, long, 1); !errors.Is(err, ErrNotFound) || !errors.Is(err, ErrKeyTooLong) {
		t.Errorf("Get = %v, want ErrNotFound and ErrKeyTooLong", err)
	}
	if sent := c.net.Stats().Sent; sent != 0 {
		t.Errorf("refused operations cost %d fabric sends, want 0", sent)
	}
	// The bound is exact, and the counter does see a client's send.
	cl.PutAsync(strings.Repeat("k", store.MaxKeyLen), 1, nil)
	if cl.Pending() != 1 || c.net.Stats().Sent == 0 {
		t.Errorf("a %d-byte key was not sent (pending=%d sent=%d)", store.MaxKeyLen, cl.Pending(), c.net.Stats().Sent)
	}
}

func contextWithTimeout(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 10*time.Second)
}
