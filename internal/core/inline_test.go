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

// deliverAs hands msg from from to DispatchData, marked as the TCP
// fabric would mark it (Last, Paced).
func (h *runHarness) deliverAs(from transport.NodeID, msg interface{}, last, paced bool) {
	h.t.Helper()
	env := h.keys.sent(transport.Envelope{From: from, To: 1, Msg: msg, Last: last, Paced: paced})
	if !h.n.DispatchData(env) {
		h.t.Fatal("DispatchData declined a data envelope in external mode")
	}
}

func inlinePuts(n *Node) uint64 { return n.Metrics().Get(metrics.InlinePuts) }

// TestInlinePutRunsAPacedFirstHopPut: a client's put from a paced stream
// that finds its shard idle is stored, acked and relayed to the mate
// before DispatchData returns, in that order — the fabric checks that
// the store held it when the ack left — and counted in inline_puts.
func TestInlinePutRunsAPacedFirstHopPut(t *testing.T) {
	st := newRunStore(false)
	h := newRunHarness(t, st, Config{})
	h.start()

	h.deliverAs(runClient, entryPut1("k", 1, 1), true, true)
	if got := inlinePuts(h.n); got != 1 {
		t.Fatalf("inline_puts = %d, want 1", got)
	}
	h.checkFrames([]string{"client ack k @1", "mate relay k @1"}, 1)
	if calls := st.calls(); fmt.Sprint(calls) != "[put 1]" {
		t.Fatalf("store writes = %v, want [put 1]", calls)
	}
}

// TestInlinePutQueuedUnlessPacedAndIdle: a first-hop put runs inline
// only when its stream is paced and its shard idle. One that is not
// paced, not Last or relayed by another node, or that finds the run
// token held, mail queued or the shard stopped, goes to the mailbox, and
// a shard goroutine stores and acks it — on a stopped shard, the final
// drain.
func TestInlinePutQueuedUnlessPacedAndIdle(t *testing.T) {
	relayed := entryPut1("k", 1, 1)
	relayed.TTL = 3
	for _, c := range []struct {
		name        string
		msg         *PutRequest
		last, paced bool
		held        bool // the test holds the run token through the dispatch
		queued      bool // an earlier put waits in the mailbox, unannounced
		stopped     bool
	}{
		{name: "not paced", msg: entryPut1("k", 1, 1), last: true},
		{name: "not last", msg: entryPut1("k", 1, 1)},
		{name: "relayed", msg: relayed, last: true, paced: true},
		{name: "token held", msg: entryPut1("k", 1, 1), last: true, paced: true, held: true},
		{name: "mail queued", msg: entryPut1("k", 1, 1), last: true, paced: true, queued: true},
		{name: "stopped", msg: entryPut1("k", 1, 1), last: true, paced: true, stopped: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := newRunStore(false)
			h := newRunHarness(t, st, Config{})
			stop := h.start()
			s := h.n.shardFor("k")
			s.token.Lock()
			acks := 1
			if c.queued {
				s.mailbox <- h.keys.sent(transport.Envelope{From: runClient, To: 1, Msg: entryPut1("q", 1, 2)})
				acks++
			}
			s.stopped = c.stopped
			if !c.held {
				s.token.Unlock()
			}
			h.deliverAs(runClient, c.msg, c.last, c.paced)
			if c.held {
				if q := len(s.mailbox); q != 1 || len(st.calls()) != 0 {
					t.Errorf("with the token held: %d queued, store writes %v; want 1 and none", q, st.calls())
				}
				s.token.Unlock()
				s.recheck()
			}
			if got := inlinePuts(h.n); got != 0 {
				t.Fatalf("inline_puts = %d, want 0", got)
			}
			if c.stopped {
				if q := len(s.mailbox); q != 1 {
					t.Fatalf("%d queued on the stopped shard, want 1", q)
				}
				stop()
			}
			waitAcks(t, h, acks)
			stop()
			if !st.holds("k", 1) {
				t.Fatal("the queued put was never stored")
			}
		})
	}
}

// waitAcks waits until the fabric was handed n acks.
func waitAcks(t *testing.T, h *runHarness, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); len(h.sentOf(isAck)) < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d acks after 5s, want %d: %q", len(h.sentOf(isAck)), n, h.frameLines())
		}
	}
}

// intraCopyTTL is intraCopy with ttl hops left.
func intraCopyTTL(key string, version uint64, seq uint32, ttl uint8) *PutRequest {
	c := intraCopy(key, version, seq)
	c.TTL = ttl
	return c
}

// TestInlinePutFilesQuietRelayCopies: a mate's relay copy, single or
// batched, that finds its shard idle is filed in the window before
// DispatchData returns when its run can send nothing — its TTL is spent,
// or the snapshot names no mate but its sender — and a copy that fills
// the window commits it there, sending nothing. A copy whose run could
// send (a further mate, TTL left) or with a frame behind it is queued,
// and the shard goroutine relays it.
func TestInlinePutFilesQuietRelayCopies(t *testing.T) {
	const other = transport.NodeID(8)
	st := newRunStore(false)
	h := newRunHarness(t, st, Config{})
	h.start()

	// The harness's one mate is the sender: nothing to relay to.
	h.deliverAs(runMate, intraCopyTTL("a", 1, 1, 2), true, false)
	h.deliverAs(runMate, intraBatch(2, 1, "b", "c"), true, false)
	if got := inlinePuts(h.n); got != 3 || !windowHolds(h.n, "a") || !windowHolds(h.n, "c") {
		t.Fatalf("inline_puts = %d, window holds a %v, c %v; want 3, true, true",
			got, windowHolds(h.n, "a"), windowHolds(h.n, "c"))
	}
	// A copy that fills the window commits it on the spot.
	keys := make([]string, coalesceMax-3)
	for i := range keys {
		keys[i] = fmt.Sprintf("f%d", i)
	}
	h.deliverAs(runMate, intraBatch(3, 1, keys...), true, false)
	if calls, want := st.calls(), fmt.Sprintf("[batch %d]", coalesceMax); fmt.Sprint(calls) != want {
		t.Fatalf("store writes = %v, want %s", calls, want)
	}
	if got := inlinePuts(h.n); got != coalesceMax {
		t.Fatalf("inline_puts = %d, want %d", got, coalesceMax)
	}
	// Not Last: queued, though it would have been quiet.
	h.deliverAs(runMate, intraCopyTTL("g", 1, 4, 2), false, false)
	waitWindowHolds(t, h.n, "g")
	if got := inlinePuts(h.n); got != coalesceMax {
		t.Fatalf("a copy with a frame behind it ran inline: inline_puts = %d", got)
	}
	if frames := h.frameLines(); len(frames) != 0 {
		t.Fatalf("quiet copies sent %q", frames)
	}

	// From a node that is not the snapshot's mate, with TTL left: the
	// run relays to the mate, so the copy, single or batched, is queued.
	batch := intraBatch(5, 1, "h2", "h3")
	batch.TTL = 2
	for i, m := range []interface{}{intraCopyTTL("h1", 1, 6, 2), batch} {
		h.deliverAs(other, m, true, false)
		h.waitFrames(i + 1)
	}
	relays := []string{"mate relay h1 @1", "mate relay [h2 h3] @1"}
	h.checkFrames(relays, 0)
	if got := inlinePuts(h.n); got != coalesceMax {
		t.Fatalf("a copy the run relays ran inline: inline_puts = %d", got)
	}
	// The same with its TTL spent goes no further: filed inline.
	h.deliverAs(other, intraCopy("i", 1, 7), true, false)
	if got := inlinePuts(h.n); got != coalesceMax+1 || !windowHolds(h.n, "i") {
		t.Fatalf("a spent copy: inline_puts = %d, window holds it %v; want %d, true", got, windowHolds(h.n, "i"), coalesceMax+1)
	}
	h.checkFrames(relays, 0)
}
