package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dataflasks/internal/bootstrap"
	"dataflasks/internal/gossip"
	"dataflasks/internal/leakcheck"
	"dataflasks/internal/metrics"
	"dataflasks/internal/obs"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// liveCapture is capture for a running node: the control loop and the
// shard goroutines all send through it. It records reply batches
// flattened (answersIn).
type liveCapture struct {
	mu   sync.Mutex
	sent []transport.Envelope
	// hold, when not nil, parks every send of a MateReply until closed.
	hold chan struct{}
	// keys names what the get replies answer, for the gets a test noted.
	keys requestKeys
}

func (c *liveCapture) Send(_ context.Context, to transport.NodeID, msg interface{}) error {
	if _, ok := msg.(*MateReply); ok && c.hold != nil {
		<-c.hold
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range answersIn(msg) {
		c.sent = append(c.sent, transport.Envelope{To: to, Msg: m})
	}
	return nil
}

func (c *liveCapture) count(pick func(interface{}) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := 0
	for _, env := range c.sent {
		if pick(env.Msg) {
			k++
		}
	}
	return k
}

// liveNode is a one-slice node that never ticks by itself: whatever its
// Status shows after Start, a delivered message put there.
func liveNode(st store.Store, out transport.Sender, cfg Config) *Node {
	cfg.Slices, cfg.Slicer, cfg.Seed = 1, SlicerStatic, 5
	cfg.AntiEntropyEvery, cfg.RoundPeriod = -1, time.Hour
	return NewNode(1, cfg, st, out)
}

// TestStatusFlipsReadyOnTheMessageThatCompletesBootstrap: readiness is
// published the moment a handled control message completes the join, not
// with the next tick — here there is no next tick for an hour.
func TestStatusFlipsReadyOnTheMessageThatCompletesBootstrap(t *testing.T) {
	out := &liveCapture{}
	n := liveNode(store.NewMemory(), out, Config{Bootstrap: true})
	ctx := context.Background()
	// Caller-driven up to a probe in flight: a first round settles the
	// slice, a mate turns up, the second round asks it for its manifest.
	n.Tick(ctx)
	n.HandleMessage(ctx, transport.Envelope{From: 2, To: 1, Msg: &MateReply{
		Slice: 0, Mates: []pssDescriptor{{ID: 2, Slice: 0}},
	}})
	n.Tick(ctx)
	if out.count(func(m interface{}) bool { _, ok := m.(*bootstrap.ManifestRequest); return ok }) != 1 {
		t.Fatalf("no manifest probe in flight: %+v", out.sent)
	}

	n.Start(ctx)
	defer n.Stop()
	if st := n.Status(); st.Ready || st.BootstrapDone || st.Slice != 0 || st.Reason != "bootstrap in progress" {
		t.Fatalf("status at start = %+v, want slice 0, not ready for the bootstrap", st)
	}
	// An empty manifest completes the join on arrival.
	n.Deliver(transport.Envelope{From: 2, To: 1, Msg: &bootstrap.ManifestReply{Slice: 0}})
	deadline := time.Now().Add(5 * time.Second)
	for !n.Status().Ready {
		if time.Now().After(deadline) {
			t.Fatalf("status never flipped: %+v", n.Status())
		}
		time.Sleep(time.Millisecond)
	}
	if st := n.Status(); !st.BootstrapDone || st.BootstrapFellBack || st.Reason != "" {
		t.Errorf("ready status = %+v", st)
	}
	if got := n.Status().Counters[metrics.MsgRecv]; got != 2 {
		t.Errorf("published MsgRecv = %d, want the mate reply and the manifest", got)
	}
}

// TestStopDrainsWhatDeliverAccepted is TestStopShardsDrainsBeforeStoreClose
// one level up: every put Deliver accepted before Stop is in the store,
// and its ack has reached the sender, when Stop returns — the shards'
// sends outlive the control loop by that drain. After Stop the node takes
// nothing: Deliver counts a drop and the store is never touched again.
func TestStopDrainsWhatDeliverAccepted(t *testing.T) {
	before := leakcheck.Snapshot()
	guard := &closeGuardStore{Store: store.NewMemory()}
	out := &liveCapture{}
	n := liveNode(guard, out, Config{DataShards: 4})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n.Start(ctx)

	const producers, perProducer = 4, 1000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				n.Deliver(transport.Envelope{From: 9, To: 1, Msg: &PutRequest{
					Routing: Routing{ID: gossip.RequestID(uint64(p)<<32 | uint64(i+1)), Origin: 9, TTL: TTLUnset},
					Key:     fmt.Sprintf("key-%d-%d", p, i), Version: 1, Value: []byte("v"),
				}})
			}
		}(p)
	}
	wg.Wait()
	n.Stop()

	served := n.Metrics().Get(metrics.PutsServed)
	if dropped := n.ShardDropped(); served+dropped != producers*perProducer || served == 0 {
		t.Fatalf("after Stop: served %d + dropped %d != delivered %d", served, dropped, producers*perProducer)
	}
	if stored := uint64(guard.Count()); stored != served {
		t.Errorf("store holds %d objects, %d puts served", stored, served)
	}
	if acks := out.count(func(m interface{}) bool { _, ok := m.(*PutAck); return ok }); uint64(acks) != served {
		t.Errorf("%d acks reached the sender for %d puts served", acks, served)
	}

	if err := guard.Close(); err != nil {
		t.Fatal(err)
	}
	n.Deliver(putEnv(1<<40, "late", 1))
	n.Deliver(transport.Envelope{From: 9, To: 1, Msg: &MateQuery{Slice: 0}})
	time.Sleep(20 * time.Millisecond)
	if late, drops := guard.lateOps.Load(), n.MailboxDropped(); late != 0 || drops != 2 {
		t.Errorf("after Stop: %d store operations, %d drops counted, want 0 and 2", late, drops)
	}
	leakcheck.Check(t, before)
}

// TestDeliverFullControlMailboxDropsAndCounts: with the control loop
// parked in a send, Deliver fills the mailbox to its bound and then drops
// — counted, one per message over the bound, without ever blocking the
// deliverer — while data requests keep going to their shard.
func TestDeliverFullControlMailboxDropsAndCounts(t *testing.T) {
	out := &liveCapture{hold: make(chan struct{})}
	n := liveNode(store.NewMemory(), out, Config{})
	n.Start(context.Background())
	defer n.Stop()
	defer close(out.hold) // let the loop go before Stop waits for it

	query := transport.Envelope{From: 9, To: 1, Msg: &MateQuery{Slice: 0}}
	n.Deliver(query) // the loop answers it and parks in the reply's send
	for deadline := time.Now().Add(5 * time.Second); n.MailboxDepth() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("control loop never took the query")
		}
		time.Sleep(time.Millisecond)
	}

	const over = 7
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n.MailboxCapacity()+over; i++ {
			n.Deliver(query)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Deliver blocked on a full control mailbox")
	}
	if depth, drops := n.MailboxDepth(), n.MailboxDropped(); depth != n.MailboxCapacity() || drops != over {
		t.Errorf("depth %d drops %d, want %d and %d", depth, drops, n.MailboxCapacity(), over)
	}

	// The data plane does not share the mailbox or its fate.
	n.Deliver(putEnv(1, "k", 1))
	for deadline := time.Now().Add(5 * time.Second); n.Store().Count() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("put not served while the control mailbox is full")
		}
		time.Sleep(time.Millisecond)
	}
	if drops := n.MailboxDropped(); drops != over {
		t.Errorf("a data request was counted against the control mailbox: drops = %d", drops)
	}
}

// TestMetricsCountDataServedWithoutATick: /metrics serves the data
// shards' counters live — here there is no tick for an hour, and every
// get served is on the scrape the moment its reply has left.
func TestMetricsCountDataServedWithoutATick(t *testing.T) {
	st := store.NewMemory()
	if err := st.Put("k", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	out := &liveCapture{}
	n := liveNode(st, out, Config{DataShards: 2})
	n.Start(context.Background())
	defer n.Stop()

	const gets = 25
	for i := 0; i < gets; i++ {
		n.Deliver(transport.Envelope{From: 9, To: 1, Msg: &GetRequest{
			Routing: Routing{ID: gossip.RequestID(i + 1), Origin: 9, TTL: TTLUnset},
			Key:     "k", Version: store.Latest,
		}})
	}
	isReply := func(m interface{}) bool { _, ok := m.(*GetReply); return ok }
	for deadline := time.Now().Add(5 * time.Second); out.count(isReply) != gets; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d gets answered", out.count(isReply), gets)
		}
		time.Sleep(time.Millisecond)
	}
	var page bytes.Buffer
	if err := obs.WriteMetrics(&page, obs.Sources{Status: n.Status}); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\nflasks_gets_served_total %d\n", gets); !strings.Contains(page.String(), want) {
		t.Errorf("/metrics lacks %q with no tick run:\n%s", strings.TrimSpace(want), page.String())
	}
	if n.Round() != 0 {
		t.Errorf("%d ticks ran", n.Round())
	}
}

// TestEverySendFailureCountsOnce: over a fabric that refuses everything,
// each protocol's sends — PSS, slicing, size estimation, mate discovery
// (queries and replies), anti-entropy, bootstrap, the data plane — fail,
// and each failure is counted once: one msg_dropped per message sent,
// which a scrape serves under all three send-failure families. The node
// runs the swap slicer, the one slicer that sends.
func TestEverySendFailureCountsOnce(t *testing.T) {
	refuse := transport.SenderFunc(func(context.Context, transport.NodeID, interface{}) error {
		return errors.New("unreachable")
	})
	n := NewNode(1, Config{
		Slices: 1, Slicer: SlicerSwap, AntiEntropyEvery: 1, Bootstrap: true, Seed: 3,
	}, store.NewMemory(), refuse)
	ctx := context.Background()
	n.Bootstrap([]transport.NodeID{2, 3})
	n.Tick(ctx) // settles the slice, so a mate can be one
	n.HandleMessage(ctx, transport.Envelope{From: 2, To: 1, Msg: &MateReply{
		Slice: 0, Mates: []pssDescriptor{{ID: 2, Slice: 0}},
	}})
	n.HandleMessage(ctx, transport.Envelope{From: 3, To: 1, Msg: &MateQuery{Slice: 0}})
	n.HandleMessage(ctx, transport.Envelope{From: 3, To: 1, Msg: &PutRequest{
		Routing: Routing{ID: gossip.RequestID(1), Origin: 9, TTL: TTLUnset},
		Key:     "k", Version: 1, Value: []byte("v"),
	}})
	n.Tick(ctx)
	n.Tick(ctx)

	m := n.Metrics()
	var byKind uint64
	for _, c := range []metrics.Counter{
		metrics.PSSSent, metrics.SliceSent, metrics.AggregateSent, metrics.DiscoverySent,
		metrics.AntiEntropySent, metrics.BootstrapSent, metrics.DataSent,
	} {
		if m.Get(c) == 0 {
			t.Errorf("no %s send attempted", c)
		}
		byKind += m.Get(c)
	}
	sent := m.Get(metrics.MsgSent)
	if sent != byKind {
		t.Errorf("msg_sent %d, by kind %d", sent, byKind)
	}
	n.publishStatus()
	var page bytes.Buffer
	if err := obs.WriteMetrics(&page, obs.Sources{Status: n.Status}); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(page.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"flasks_msg_dropped_total", "flasks_wire_send_errors_total", "flasks_transport_send_errors_total",
	} {
		if f := fams[name]; f == nil || len(f.Samples) != 1 || f.Samples[0].Value != float64(sent) {
			t.Errorf("%s is not one sample of msg_sent %d:\n%s", name, sent, page.String())
		}
	}
}
