package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dataflasks/internal/gossip"
	"dataflasks/internal/leakcheck"
	"dataflasks/internal/metrics"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// getEnv is a client's get of the latest version of key, as the TCP
// fabric hands it over: ttl TTLUnset is its first hop, last says no
// further frame of its stream was in hand.
func getEnv(id uint64, key string, ttl uint8, last bool) transport.Envelope {
	return transport.Envelope{From: 9, To: 1, Last: last, Msg: &GetRequest{
		Routing: Routing{ID: gossip.RequestID(id), Origin: 9, TTL: ttl},
		Key:     key, Version: store.Latest,
	}}
}

// replies returns the versions of the get replies sent so far to the
// gets of key the test noted in c.keys.
func (c *liveCapture) replies(key string) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []uint64
	for _, env := range c.sent {
		if r, ok := env.Msg.(*GetReply); ok && c.keys.of(r) == key {
			out = append(out, r.Version)
		}
	}
	return out
}

// waitReplies waits until n get replies for key have been sent.
func waitReplies(t *testing.T, c *liveCapture, key string, n int) []uint64 {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if got := c.replies(key); len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d replies for %q", len(c.replies(key)), n, key)
		}
	}
}

// idle returns once the run in progress on key's shard, if any, ended.
func idle(n *Node, key string) {
	s := n.shardFor(key)
	s.token.Lock()
	defer s.token.Unlock()
}

// TestInlineGetServesOnlyFirstHopLastGets: a client's get that finds its
// shard idle is answered before DispatchData returns, on the caller's
// goroutine, and counted in inline_gets. A get with a further frame of
// its stream in hand, or one relayed by another node (its TTL set), is
// queued for the shard goroutine as before and answered from there.
func TestInlineGetServesOnlyFirstHopLastGets(t *testing.T) {
	st := store.NewMemory()
	if err := st.Put("k", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	out := &liveCapture{}
	n := liveNode(st, out, Config{DataShards: 1})
	n.Start(context.Background())
	defer n.Stop()
	inline := func() uint64 { return n.Metrics().Get(metrics.InlineGets) }

	n.Deliver(out.keys.sent(getEnv(1, "k", TTLUnset, true)))
	if got := len(out.replies("k")); got != 1 || inline() != 1 {
		t.Fatalf("first-hop last get: %d replies when Deliver returned, inline_gets %d; want 1 and 1", got, inline())
	}
	for i, env := range []transport.Envelope{
		getEnv(2, "k", TTLUnset, false), // more of its stream in hand
		getEnv(3, "k", 3, true),         // relayed by another node
	} {
		idle(n, "k")
		n.Deliver(out.keys.sent(env))
		waitReplies(t, out, "k", i+2)
		if inline() != 1 {
			t.Fatalf("envelope %d: inline_gets = %d, want 1 (queued, not inline)", i, inline())
		}
	}
}

// TestInlineGetQueuedWhileItsKeyIsInTheWindow: a get of a key whose put
// waits in the shard's window needs a commit first, so it is queued,
// not served inline, and it reads the windowed version.
func TestInlineGetQueuedWhileItsKeyIsInTheWindow(t *testing.T) {
	st := store.NewMemory()
	if err := st.Put("k", 1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	out := &liveCapture{}
	n := liveNode(st, out, Config{DataShards: 1})
	n.Start(context.Background())
	defer n.Stop()

	// A mate's relay copy of version 2 waits in the window: no tick for
	// an hour.
	n.Deliver(transport.Envelope{From: 2, To: 1, Msg: &PutRequest{
		Routing: Routing{ID: gossip.RequestID(100), Intra: true, NoAck: true},
		Key:     "k", Version: 2, Value: []byte("v2"),
	}})
	waitWindowHolds(t, n, "k")

	n.Deliver(out.keys.sent(getEnv(1, "k", TTLUnset, true)))
	if got := waitReplies(t, out, "k", 1); got[0] != 2 {
		t.Fatalf("get read version %d, want the windowed 2", got[0])
	}
	if got := n.Metrics().Get(metrics.InlineGets); got != 0 {
		t.Fatalf("inline_gets = %d, want 0: the get needed a commit", got)
	}
}

// TestInlineGetRacesStopShards: gets served inline while the node stops
// are race-clean, none touches the store once Stop has returned, and
// no goroutine is left.
func TestInlineGetRacesStopShards(t *testing.T) {
	before := leakcheck.Snapshot()
	guard := &closeGuardStore{Store: store.NewMemory()}
	for i := 0; i < 8; i++ {
		if err := guard.Put(fmt.Sprintf("k%d", i), 1, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	n := liveNode(guard, &liveCapture{}, Config{DataShards: 2})
	n.Start(context.Background())

	const getters, perGetter = 4, 2000
	var wg sync.WaitGroup
	started := make(chan struct{}, getters)
	for g := 0; g < getters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			started <- struct{}{}
			for i := 0; i < perGetter; i++ {
				n.Deliver(getEnv(uint64(g)<<32|uint64(i+1), fmt.Sprintf("k%d", i%8), TTLUnset, true))
			}
		}(g)
	}
	for g := 0; g < getters; g++ {
		<-started
	}
	n.Stop()
	if err := guard.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if late := guard.lateOps.Load(); late != 0 {
		t.Fatalf("%d store operations after Stop returned", late)
	}
	leakcheck.Check(t, before)
}

// parkedGet is a store whose first read waits until release closes.
type parkedGet struct {
	store.Store
	once             sync.Once
	entered, release chan struct{}
}

func (p *parkedGet) Get(key string, version uint64) ([]byte, uint64, bool, error) {
	p.once.Do(func() {
		close(p.entered)
		<-p.release
	})
	return p.Store.Get(key, version)
}

// TestInlineGetRechecksItsMailbox: a put queued on a shard while a get
// served inline holds it wakes a run that finds the shard held and
// leaves; the inline get, letting go, wakes the shards again, so the put
// is acked without waiting for a tick (none comes for an hour).
func TestInlineGetRechecksItsMailbox(t *testing.T) {
	st := &parkedGet{Store: store.NewMemory(), entered: make(chan struct{}), release: make(chan struct{})}
	if err := st.Put("k", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	out := &liveCapture{}
	n := liveNode(st, out, Config{DataShards: 1})
	n.StartShards(context.Background())
	defer n.StopShards()

	go n.DispatchData(out.keys.sent(getEnv(1, "k", TTLUnset, true)))
	<-st.entered
	n.DispatchData(transport.Envelope{From: 9, To: 1, Msg: &PutRequest{
		Routing: Routing{ID: gossip.RequestID(2), Origin: 9, TTL: TTLUnset},
		Key:     "k2", Version: 1, Value: []byte("v"),
	}})
	// Let the woken run find the shard held and leave.
	for len(n.wake) > 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(st.release)
	waitReplies(t, out, "k", 1)
	isAck := func(m interface{}) bool { _, ok := m.(*PutAck); return ok }
	for deadline := time.Now().Add(5 * time.Second); out.count(isAck) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("put queued behind an inline get was not acked within 5s")
		}
	}
}
