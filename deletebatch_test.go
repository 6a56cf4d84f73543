package dataflasks_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dataflasks"
	"dataflasks/internal/core"
	"dataflasks/internal/transport"
	"dataflasks/internal/wire"
)

// TestDeleteBatchEndToEnd writes objects across every slice, deletes
// them all through one DeleteBatch call (grouped per slice onto the
// batched wire path) and verifies replicas drop them — plus that the
// applied count reflects how many keys actually existed.
func TestDeleteBatchEndToEnd(t *testing.T) {
	c := startStaticCluster(t, 12, 2)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	time.Sleep(200 * time.Millisecond) // let views fill

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const n = 16
	items := make([]dataflasks.KeyVersion, 0, n)
	retry := []dataflasks.OpOption{
		dataflasks.WithTimeout(250 * time.Millisecond),
		dataflasks.WithRetries(20),
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("delbatch%04d", i)
		if err := cl.Put(ctx, key, 1, []byte(key), retry...); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		// Half the keys get a second version: AllVersions must remove
		// both, Latest alone would leave v1 behind.
		version := dataflasks.Latest
		if i%2 == 0 {
			if err := cl.Put(ctx, key, 2, []byte(key), retry...); err != nil {
				t.Fatalf("put %s v2: %v", key, err)
			}
			version = dataflasks.AllVersions
		}
		items = append(items, dataflasks.KeyVersion{Key: key, Version: version})
	}
	// Two keys that never existed: they must not inflate the count.
	items = append(items,
		dataflasks.KeyVersion{Key: "delbatch-ghost-a", Version: dataflasks.Latest},
		dataflasks.KeyVersion{Key: "delbatch-ghost-b", Version: 7})

	applied, err := cl.DeleteBatch(ctx, items, retry...)
	if err != nil {
		t.Fatalf("DeleteBatch: %v", err)
	}
	// The acking replica held at least the entry-point copy of each
	// real key (it stored them synchronously on the put path); ghosts
	// contribute nothing.
	if applied == 0 || applied > n {
		t.Fatalf("applied = %d, want in (0, %d]", applied, n)
	}

	// Deletes disseminate intra-slice epidemically; all replicas must
	// converge to zero copies. A delete can race the tail of a put's
	// own flood (a late relay re-stores the object), so re-issue the
	// batch if copies persist — eventual semantics, as a real client
	// would.
	deadline := time.Now().Add(30 * time.Second)
	for tries := 0; ; {
		remaining := 0
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("delbatch%04d", i)
			remaining += c.ReplicaCount(key, 1) + c.ReplicaCount(key, 2)
		}
		if remaining == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d replica copies survived the batch delete", remaining)
		}
		time.Sleep(50 * time.Millisecond)
		if tries++; tries%20 == 0 { // every ~1s of persistence
			if _, err := cl.DeleteBatch(ctx, items, retry...); err != nil {
				t.Fatalf("re-issued DeleteBatch: %v", err)
			}
		}
	}
}

// TestDeleteBatchAsyncGrouping checks the per-slice grouping contract:
// one future per distinct target slice, in first-appearance order.
func TestDeleteBatchAsyncGrouping(t *testing.T) {
	c := startStaticCluster(t, 8, 4)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	time.Sleep(100 * time.Millisecond)

	// 40 keys over 4 slices must form at most 4 groups.
	items := make([]dataflasks.KeyVersion, 0, 40)
	for i := 0; i < 40; i++ {
		items = append(items, dataflasks.KeyVersion{
			Key:     fmt.Sprintf("group%04d", i),
			Version: dataflasks.Latest,
		})
	}
	ops := cl.DeleteBatchAsync(items, dataflasks.WithFireAndForget())
	if len(ops) == 0 || len(ops) > 4 {
		t.Fatalf("got %d groups, want 1..4 (one per target slice)", len(ops))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, op := range ops {
		if err := op.Wait(ctx); err != nil {
			t.Fatalf("fire-and-forget group: %v", err)
		}
	}
}

// deletingPeer is a stand-in node on a TCP fabric of its own: it records
// every message that reaches it and acknowledges each delete batch with
// how many of its items name a key in held. A key in silent goes
// unanswered.
type deletingPeer struct {
	net    atomic.Pointer[transport.TCPNetwork]
	held   map[string]bool
	silent string
	mu     sync.Mutex
	got    []interface{}
}

func (p *deletingPeer) deliver(env transport.Envelope) {
	p.mu.Lock()
	p.got = append(p.got, env.Msg)
	p.mu.Unlock()
	req, ok := env.Msg.(*core.DeleteBatchRequest)
	if !ok || req.Items[0].Key == p.silent {
		return
	}
	applied := 0
	for _, it := range req.Items {
		if p.held[it.Key] {
			applied++
		}
	}
	_ = p.net.Load().Sender().Send(context.Background(), req.Origin, &core.DeleteBatchAck{ID: req.ID, Applied: applied})
}

// TestDeleteAsyncIsABatchOfOne: a single delete goes on the wire as one
// delete batch of one item; its future reports the requested version,
// Applied 1 for an object the replica held and 0 for an absent one, and a
// failed delete keeps its error text.
func TestDeleteAsyncIsABatchOfOne(t *testing.T) {
	p := &deletingPeer{held: map[string]bool{"held": true}, silent: "silent"}
	fabric, err := transport.ListenTCP(1, "127.0.0.1:0", "", transport.TCPConfig{Codec: wire.BinaryCodec()}, p.deliver)
	if err != nil {
		t.Fatal(err)
	}
	p.net.Store(fabric)
	defer fabric.Close()
	cl, err := dataflasks.ConnectClient("127.0.0.1:0", []string{"1@" + fabric.Addr()}, dataflasks.Config{Slices: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for _, tc := range []struct {
		key     string
		version uint64
		applied int
	}{
		{"held", 3, 1},
		{"absent", dataflasks.Latest, 0},
	} {
		op := cl.DeleteAsync(tc.key, tc.version)
		if err := op.Wait(ctx); err != nil {
			t.Fatalf("delete %q: %v", tc.key, err)
		}
		if op.Applied() != tc.applied || op.Version() != tc.version {
			t.Errorf("delete %q v%d: Applied %d, Version %d; want %d, %d", tc.key, tc.version, op.Applied(), op.Version(), tc.applied, tc.version)
		}
	}
	err = cl.Delete(ctx, "silent", 1, dataflasks.WithTimeout(time.Millisecond), dataflasks.WithRetries(0))
	if !errors.Is(err, dataflasks.ErrTimeout) || !strings.HasPrefix(err.Error(), `dataflasks: delete "silent": `) {
		t.Errorf("unanswered delete: %v, want a timeout named delete \"silent\"", err)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	want := []core.DeleteItem{{Key: "held", Version: 3}, {Key: "absent", Version: dataflasks.Latest}, {Key: "silent", Version: 1}}
	var deletes int
	for _, msg := range p.got {
		req, ok := msg.(*core.DeleteBatchRequest)
		if !ok {
			continue // the client may ask the peer for slice members
		}
		if deletes < len(want) && (len(req.Items) != 1 || req.Items[0] != want[deletes]) {
			t.Errorf("delete %d went out as items %+v, want one item %+v", deletes, req.Items, want[deletes])
		}
		deletes++
	}
	if deletes != len(want) {
		t.Errorf("%d delete batches reached the peer, want %d: %+v", deletes, len(want), p.got)
	}
}
