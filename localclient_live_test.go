package dataflasks_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"testing"
	"time"

	"dataflasks"
	"dataflasks/internal/leakcheck"
	"dataflasks/internal/slicing"
)

// startLoneNode boots a single-node deployment: one slice, static
// slicer, so the node serves every key from the first moment.
func startLoneNode(t *testing.T) (*dataflasks.Node, dataflasks.Config) {
	t.Helper()
	cfg := dataflasks.Config{Slices: 1, Slicer: dataflasks.StaticSlicer, SystemSize: 1}
	node, err := dataflasks.StartNode(dataflasks.NodeConfig{
		ID: 1, Bind: "127.0.0.1:0", RoundPeriod: 20 * time.Millisecond, Config: cfg,
	})
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	t.Cleanup(func() { _ = node.Close() })
	return node, cfg
}

// TestClientCloseClosesFabric: when Close returns, the client's fabric is
// closed too — its listener is unbound and none of its goroutines is left
// (it used to be torn down by a goroutine nobody waited for).
func TestClientCloseClosesFabric(t *testing.T) {
	node, cfg := startLoneNode(t)
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bind := probe.Addr().String()
	probe.Close()

	before := leakcheck.Snapshot()
	cl, err := dataflasks.ConnectClient(bind, []string{fmt.Sprintf("1@%s", node.Addr())}, cfg)
	if err != nil {
		t.Fatalf("ConnectClient on %s: %v", bind, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A round trip, so the fabric has an outbound stream and its reader,
	// and the node has dialed back into the listener.
	if err := cl.Put(ctx, "k", 1, []byte("v")); err != nil {
		t.Fatalf("put: %v", err)
	}
	cl.Close()
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		t.Fatalf("the client's listener outlived Close: %v", err)
	}
	ln.Close()
	leakcheck.Check(t, before)
}

// TestNodeCloseClosesLocalClient: a node takes the clients that live in
// its process down with it. Their pending operations end with
// ErrClientClosed rather than waiting out a node that is gone, nothing
// panics, no goroutine is left, and a closed node makes no new client.
func TestNodeCloseClosesLocalClient(t *testing.T) {
	before := leakcheck.Snapshot()
	node, cfg := startLoneNode(t)
	cl, err := node.NewClient(cfg)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.Put(ctx, "k", 1, []byte("v")); err != nil {
		t.Fatalf("put: %v", err)
	}
	// Reads of a missing key have no negative answer: they stay pending
	// until their retry budget (tens of seconds) runs out.
	pending := make([]*dataflasks.Op, 8)
	for i := range pending {
		pending[i] = cl.GetLatestAsync(fmt.Sprintf("missing-%d", i))
	}
	if err := node.Close(); err != nil {
		t.Fatalf("node.Close: %v", err)
	}
	for i, op := range pending {
		if err := op.Wait(ctx); !errors.Is(err, dataflasks.ErrClientClosed) {
			t.Errorf("pending get %d ended with %v, want ErrClientClosed", i, err)
		}
	}
	if err := cl.Put(ctx, "k", 2, []byte("v")); !errors.Is(err, dataflasks.ErrClientClosed) {
		t.Errorf("put after the node closed: %v, want ErrClientClosed", err)
	}
	cl.Close() // the owner's own Close is still fine
	if _, err := node.NewClient(cfg); err == nil {
		t.Error("NewClient on a closed node succeeded")
	}
	leakcheck.Check(t, before)
}

// TestLocalClientEncodesNothing: between a node and the client that lives
// in its process nothing is encoded in either direction — not a request,
// not an ack or a reply, and not the mate query's answer.
func TestLocalClientEncodesNothing(t *testing.T) {
	// "udp=" names the empty datagram setting: the TCP control plane, the
	// only one a node runs.
	t.Run("udp=", testLocalClientEncodesNothing)
}

func testLocalClientEncodesNothing(t *testing.T) {
	node, cfg := startLoneNode(t)
	cl, err := node.NewClient(cfg)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	value := bytes.Repeat([]byte("v"), 1<<10)
	const ops = 50
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("lone-%02d", i)
		if err := cl.Put(ctx, key, 1, value); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		if got, err := cl.Get(ctx, key, 1); err != nil || !bytes.Equal(got, value) {
			t.Fatalf("get %s: %d bytes, %v", key, len(got), err)
		}
	}
	if n := node.EncodedBytes(); n != 0 {
		t.Errorf("a lone node with a local client encoded %d bytes", n)
	}
	// All but the first put, which found the directory empty.
	if st := cl.DirectoryStats(); st.Local != 2*ops-1 || st.Hits != st.Local || st.Evictions != 0 {
		t.Errorf("directory = %+v, want %d hits, all local", st, 2*ops-1)
	}
	if n := cl.MailboxDropped() + node.MailboxDropped(); n != 0 {
		t.Errorf("%d messages dropped between the client and its node", n)
	}
}

// TestLocalClientLiveCluster attaches a Node.NewClient client to node 1 of
// a 4-node, 2-slice TCP cluster. Keys of node 1's slice are served by
// function call — their replies never reach a wire — while everything
// else goes through the client's own fabric as it does for a remote
// client.
func TestLocalClientLiveCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP cluster in -short mode")
	}
	const period = 40 * time.Millisecond
	cfg := dataflasks.Config{Slices: 2, SystemSize: 4, Seed: 37}
	nodes, seeds := startTwoSliceCluster(t, cfg, period)
	home := nodes[0]
	cl, err := home.NewClient(cfg)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const perSlice, valueSize = 200, 1 << 10
	var own, other []string
	for i := 0; len(own) < perSlice || len(other) < perSlice; i++ {
		key := fmt.Sprintf("local-%04d", i)
		if slicing.KeySlice(key, cfg.Slices) == home.Slice() {
			own = append(own, key)
		} else {
			other = append(other, key)
		}
	}
	own, other = own[:perSlice], other[:perSlice]
	rng := rand.New(rand.NewPCG(37, 1))
	valueOf := make(map[string][]byte, 2*perSlice)
	for _, key := range append(append([]string(nil), own...), other...) {
		v := make([]byte, valueSize)
		for i := range v {
			v[i] = byte(rng.Uint32())
		}
		valueOf[key] = v
	}
	encoded := func() (sum uint64) {
		for _, nd := range nodes {
			sum += nd.EncodedBytes()
		}
		return sum
	}

	// (a) Own-slice keys: the replies to 200 reads of 1 KiB put next to
	// nothing on any node's wire. (With a socket between the client and
	// its node every reply is encoded: at least 200 KiB.)
	for _, key := range own {
		if err := cl.Put(ctx, key, 1, valueOf[key]); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	time.Sleep(10 * period) // relay copies land, anti-entropy has nothing left to push
	start, e0 := time.Now(), encoded()
	for _, key := range own {
		got, version, err := cl.GetLatest(ctx, key)
		if err != nil || version != 1 {
			t.Fatalf("get %s: v%d, %v", key, version, err)
		}
		if !bytes.Equal(got, valueOf[key]) {
			t.Fatalf("get %s returned other bytes than were put", key)
		}
	}
	window, busy := time.Since(start), encoded()-e0
	e0 = encoded()
	time.Sleep(window)
	idle := encoded() - e0
	if busy > idle+perSlice*valueSize/2 {
		t.Errorf("%d own-slice reads grew the nodes' encoded bytes by %d, an idle window of the same %s by %d: the replies went over a wire",
			perSlice, busy, window, idle)
	}
	if st := cl.DirectoryStats(); st.Local < perSlice || st.Evictions != 0 {
		t.Errorf("directory after the own-slice ops: %+v, want at least %d local hits and no eviction", st, perSlice)
	}

	// (b) Other-slice keys go to that slice's members over the client's
	// own fabric: nothing times out, and none of it counts as local.
	localBefore := cl.DirectoryStats().Local
	for _, key := range other {
		put := cl.PutAsync(key, 1, valueOf[key])
		if err := put.Wait(ctx); err != nil || put.Retries() != 0 {
			t.Fatalf("put %s: %v after %d retries", key, err, put.Retries())
		}
		get := cl.GetLatestAsync(key)
		if err := get.Wait(ctx); err != nil || get.Retries() != 0 {
			t.Fatalf("get %s: %v after %d retries", key, err, get.Retries())
		}
		if !bytes.Equal(get.Value(), valueOf[key]) {
			t.Fatalf("get %s returned other bytes than were put", key)
		}
	}
	st := cl.DirectoryStats()
	if st.Local != localBefore {
		t.Errorf("local hits grew by %d on keys of the other slice", st.Local-localBefore)
	}
	if st.Hits-st.Local < 2*perSlice-10 {
		t.Errorf("directory after the other-slice ops: %+v, want nearly all %d to hit a remote member", st, 2*perSlice)
	}

	// (c) The dependable path still floods from the seed list, which for
	// this client is its node: a two-ack put of an other-slice key reaches
	// both members in the global phase, and deletes complete in both
	// slices.
	fallbacks := st.Fallbacks
	for i, key := range other[:10] {
		op := cl.PutAsync(key, 2, valueOf[key], dataflasks.WithAcks(2),
			dataflasks.WithTimeout(500*time.Millisecond), dataflasks.WithRetries(8))
		if err := op.Wait(ctx); err != nil || op.Acks() < 2 {
			t.Fatalf("two-ack put %d: %v with %d acks", i, err, op.Acks())
		}
	}
	for _, key := range []string{own[0], other[0]} {
		if err := cl.Delete(ctx, key, dataflasks.AllVersions,
			dataflasks.WithTimeout(500*time.Millisecond), dataflasks.WithRetries(8)); err != nil {
			t.Fatalf("delete %s: %v", key, err)
		}
	}
	if after := cl.DirectoryStats(); after.Hits != st.Hits || after.Local != st.Local || after.Fallbacks < fallbacks+12 {
		t.Errorf("flood attempts consulted the directory: %+v → %+v", st, after)
	}

	// (d) A remote client and the local one write and read the same keys
	// at once. What the local client has had acknowledged it reads back by
	// version, byte for byte, and for keys of its node's slice — written
	// and read at the same replica, whose window a get of the key commits
	// first — nothing older is ever the latest.
	remote, err := dataflasks.ConnectClient("127.0.0.1:0", seeds, cfg)
	if err != nil {
		t.Fatalf("ConnectClient: %v", err)
	}
	defer remote.Close()
	shared := append(append([]string(nil), own[1:9]...), other[1:9]...)
	const rounds = 25
	stamp := func(who byte, round int, key string) []byte {
		return append(bytes.Repeat([]byte{who}, 64), fmt.Sprintf("%d/%s", round, key)...)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			for _, key := range shared {
				// Even versions from 10 up; the local client takes the odd ones.
				if err := remote.Put(ctx, key, uint64(10+2*r), stamp('r', r, key)); err != nil {
					t.Errorf("remote put %s round %d: %v", key, r, err)
					return
				}
			}
		}
	}()
	for r := 0; r < rounds && !t.Failed(); r++ {
		for _, key := range shared {
			version, want := uint64(11+2*r), stamp('l', r, key)
			if err := cl.Put(ctx, key, version, want); err != nil {
				t.Fatalf("local put %s round %d: %v", key, r, err)
			}
			got, err := cl.Get(ctx, key, version)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("local read of its own write %s v%d: %q, %v", key, version, got, err)
			}
			if slicing.KeySlice(key, cfg.Slices) != home.Slice() {
				continue // the read may go to the member that did not acknowledge
			}
			if _, latest, err := cl.GetLatest(ctx, key); err != nil || latest < version {
				t.Fatalf("latest of %s = v%d (%v) after v%d was acknowledged", key, latest, err, version)
			}
		}
	}
	wg.Wait()
	for _, key := range shared {
		want := uint64(10 + 2*rounds - 1) // the local client's last write is the newest
		if _, latest, err := remote.GetLatest(ctx, key); err != nil || latest < want-1 {
			t.Errorf("remote latest of %s = v%d (%v), want v%d or v%d", key, latest, err, want-1, want)
		}
	}
	if n := cl.MailboxDropped(); n != 0 {
		t.Errorf("local client dropped %d replies", n)
	}
}
