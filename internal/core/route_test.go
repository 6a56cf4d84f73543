package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"dataflasks/internal/gossip"
	"dataflasks/internal/metrics"
	"dataflasks/internal/pss"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// The global phase under test: a node of slice routeMine (of routeK)
// relaying requests for a key of slice routeTarget.
const (
	routeK      = 4
	routeMine   = 1
	routeTarget = 3
	routeN      = 100 // SystemSize: fanout ceil(ln 100 + 1) = 6
)

// routeHarness is one node whose outbound traffic is recorded, run
// either inline (HandleMessage handles data synchronously) or with two
// externally-run shards reading the published route snapshot — the two
// runtimes that must route identically.
type routeHarness struct {
	t       *testing.T
	n       *Node
	sharded bool

	mu   sync.Mutex
	sent []transport.Envelope
	// down makes sends to these peers fail synchronously.
	down map[transport.NodeID]bool
}

func newRouteHarness(t *testing.T, slice int32, sharded bool) *routeHarness {
	t.Helper()
	h := &routeHarness{t: t, sharded: sharded, down: map[transport.NodeID]bool{}}
	id := findNodeInSlice(t, slice, routeK)
	cfg := Config{
		Slices: routeK, Slicer: SlicerStatic, SystemSize: routeN,
		AntiEntropyEvery: -1, Seed: 1,
	}
	if sharded {
		cfg.DataShards = 2
	}
	h.n = NewNode(id, cfg, store.NewMemory(), transport.SenderFunc(
		func(_ context.Context, to transport.NodeID, msg interface{}) error {
			h.mu.Lock()
			defer h.mu.Unlock()
			h.sent = append(h.sent, transport.Envelope{From: id, To: to, Msg: msg})
			if h.down[to] {
				return errors.New("peer down")
			}
			return nil
		}))
	if sharded {
		h.n.StartShards(context.Background())
		t.Cleanup(h.n.StopShards)
	}
	return h
}

// learn installs descriptors in the node's PSS view (a shuffle reply
// is merged as is), which in sharded mode republishes the snapshot.
func (h *routeHarness) learn(descs ...pss.Descriptor) {
	h.n.HandleMessage(context.Background(), transport.Envelope{
		From: descs[0].ID, To: h.n.ID(), Msg: &pss.ShuffleReply{Sample: descs},
	})
}

// deliver hands the node one message and returns the data sends it
// provoked. Sharded mode drains the shards first, so a harness
// delivers once.
func (h *routeHarness) deliver(from transport.NodeID, msg interface{}) []transport.Envelope {
	h.mu.Lock()
	h.sent = nil
	h.mu.Unlock()
	h.n.HandleMessage(context.Background(), transport.Envelope{From: from, To: h.n.ID(), Msg: msg})
	if h.sharded {
		h.n.StopShards()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]transport.Envelope(nil), h.sent...)
}

func (h *routeHarness) counter(c metrics.Counter) uint64 { return h.n.Metrics().Get(c) }

// wantHops asserts the global-phase hop counters.
func (h *routeHarness) wantHops(relayed, directed, flooded uint64) {
	h.t.Helper()
	if got := h.counter(metrics.RequestsRelayed); got != relayed {
		h.t.Errorf("requests_relayed = %d, want %d", got, relayed)
	}
	if got := h.counter(metrics.RequestsDirected); got != directed {
		h.t.Errorf("requests_directed = %d, want %d", got, directed)
	}
	if got := h.counter(metrics.RequestsFlooded); got != flooded {
		h.t.Errorf("requests_flooded = %d, want %d", got, flooded)
	}
}

// peersOf returns n descriptors advertising slice, ids from base up.
func peersOf(slice int32, base, n int) []pss.Descriptor {
	out := make([]pss.Descriptor, n)
	for i := range out {
		out[i] = pss.Descriptor{ID: transport.NodeID(base + i), Slice: slice}
	}
	return out
}

func routePut(key string, ttl uint8, flood bool) *PutRequest {
	return &PutRequest{
		Routing: Routing{ID: gossip.MakeRequestID(0xC0000001, 1), Origin: 0xC0000001, TTL: ttl, Flood: flood},
		Key:     key, Version: 1, Value: []byte("v"),
	}
}

// bothRuntimes runs a routing test inline and on externally-run shards.
func bothRuntimes(t *testing.T, test func(t *testing.T, sharded bool)) {
	t.Run("inline", func(t *testing.T) { test(t, false) })
	t.Run("shards", func(t *testing.T) { test(t, true) })
}

const client1 = transport.NodeID(0xC0000001)

// TestGlobalPhaseDirectedHop: a wrong-slice node whose view names a
// member of the key's slice makes exactly one data send, to it.
func TestGlobalPhaseDirectedHop(t *testing.T) {
	bothRuntimes(t, func(t *testing.T, sharded bool) {
		h := newRouteHarness(t, routeMine, sharded)
		h.learn(append(peersOf(0, 500, 8), pss.Descriptor{ID: 900, Slice: routeTarget})...)
		key := keyForSlice(t, routeTarget, routeK)

		sent := h.deliver(client1, routePut(key, TTLUnset, false))
		if len(sent) != 1 || sent[0].To != 900 {
			t.Fatalf("sends = %+v, want one to the target-slice peer 900", sent)
		}
		fwd := sent[0].Msg.(*PutRequest)
		if want := gossip.TTL(routeN, gossip.Fanout(routeN, 1), 2) - 1; fwd.TTL != want {
			t.Errorf("forwarded TTL = %d, want the stamped budget less one (%d)", fwd.TTL, want)
		}
		if fwd.Flood || fwd.Intra {
			t.Errorf("first directed copy = %+v, want Flood and Intra unset", fwd)
		}
		h.wantHops(1, 1, 0)
		if got := h.counter(metrics.DataSent); got != 1 {
			t.Errorf("data_sent = %d, want 1", got)
		}
	})
}

// TestGlobalPhaseSendsQueuedAnswersFirst: answers the run has queued for a
// client leave, as one reply batch, before the global-phase relay of a
// later request in the same run — a relay never holds an answer back.
func TestGlobalPhaseSendsQueuedAnswersFirst(t *testing.T) {
	h := newRouteHarness(t, routeMine, false)
	h.learn(pss.Descriptor{ID: 900, Slice: routeTarget})
	key := keyForSlice(t, routeTarget, routeK)
	s := h.n.shardFor(key)
	// A caller-driven node runs the request as s's solo run: queue two
	// answers in it ahead of the request.
	s.solo.answers = append(s.solo.answers,
		answer{to: client1, msg: &GetReply{ID: 1}},
		answer{to: client1, msg: &PutAck{ID: 2}})

	sent := h.deliver(77, routePut(key, TTLUnset, false))
	if len(sent) != 2 || sent[0].To != client1 || sent[1].To != 900 {
		t.Fatalf("sends = %+v, want the queued answers to the client, then the relay to 900", sent)
	}
	if batch, ok := sent[0].Msg.(*Replies); !ok || len(batch.Msgs) != 2 {
		t.Errorf("answers left as %+v, want one Replies of both", sent[0].Msg)
	}
}

// TestGlobalPhaseStaleHintStillDelivers walks a request down a chain of
// stale descriptors: each recipient has left the slice, continues the
// global phase with the TTL that is left, and the second one falls back
// to the fanout, so no chain of hints can strand the request. It ends
// by dedup (a copy coming back) or by TTL.
func TestGlobalPhaseStaleHintStillDelivers(t *testing.T) {
	bothRuntimes(t, func(t *testing.T, sharded bool) {
		key := keyForSlice(t, routeTarget, routeK)
		view := append(peersOf(0, 500, 8), pss.Descriptor{ID: 900, Slice: routeTarget})

		// First hop: a contact outside the slice directs the request.
		a := newRouteHarness(t, routeMine, sharded)
		a.learn(view...)
		sent := a.deliver(client1, routePut(key, TTLUnset, false))
		if len(sent) != 1 {
			t.Fatalf("first hop sends = %+v", sent)
		}
		first := sent[0].Msg.(*PutRequest)

		// The hinted peer has moved to another slice: it takes one
		// directed hop of its own, and marks the copy.
		b := newRouteHarness(t, 2, sharded)
		b.learn(view...)
		sent = b.deliver(a.n.ID(), first)
		if len(sent) != 1 || sent[0].To != 900 {
			t.Fatalf("stale recipient sends = %+v, want one directed hop", sent)
		}
		second := sent[0].Msg.(*PutRequest)
		if !second.Flood || second.TTL != first.TTL-1 {
			t.Fatalf("second directed copy = %+v, want Flood set and TTL %d", second, first.TTL-1)
		}
		b.wantHops(1, 1, 0)

		// Stale again: the fanout, not a third hint.
		c := newRouteHarness(t, 0, sharded)
		c.learn(view...)
		sent = c.deliver(b.n.ID(), second)
		if want := gossip.Fanout(routeN, 1); len(sent) != want {
			t.Fatalf("second stale recipient made %d sends, want the fanout %d", len(sent), want)
		}
		for _, env := range sent {
			if m := env.Msg.(*PutRequest); !m.Flood || m.TTL != second.TTL-1 {
				t.Fatalf("flooded copy = %+v, want Flood kept and TTL %d", m, second.TTL-1)
			}
		}
		c.wantHops(1, 0, 1)

		if sharded {
			return // the harnesses have stopped their shards
		}
		// A copy that comes back is suppressed, not relayed again.
		if sent := b.deliver(c.n.ID(), first); len(sent) != 0 {
			t.Fatalf("duplicate provoked sends: %+v", sent)
		}
		if got := b.counter(metrics.DuplicatesSuppressed); got != 1 {
			t.Errorf("duplicates_suppressed = %d, want 1", got)
		}
		// And a spent budget ends the phase whatever the view says.
		spent := routePut(key, 0, false)
		spent.ID = gossip.MakeRequestID(client1, 2)
		if sent := b.deliver(c.n.ID(), spent); len(sent) != 0 {
			t.Fatalf("TTL 0 request was relayed: %+v", sent)
		}
	})
}

// TestGlobalPhaseSenderIsNoCandidate: the peer a request came from is
// never the target of the directed hop, however it advertises itself.
func TestGlobalPhaseSenderIsNoCandidate(t *testing.T) {
	h := newRouteHarness(t, routeMine, false)
	h.learn(pss.Descriptor{ID: 900, Slice: routeTarget}, pss.Descriptor{ID: 901, Slice: 0})
	key := keyForSlice(t, routeTarget, routeK)
	sent := h.deliver(900, routePut(key, 4, false))
	if len(sent) != 2 {
		t.Fatalf("sends = %+v, want the flood over both peers", sent)
	}
	h.wantHops(1, 0, 1)
}

// TestGlobalPhaseFloodFlag: every request kind carrying Flood takes the
// fanout although the view names a target-slice peer, and keeps the
// flag on the copies.
func TestGlobalPhaseFloodFlag(t *testing.T) {
	key := keyForSlice(t, routeTarget, routeK)
	id := gossip.MakeRequestID(client1, 1)
	kinds := map[string]interface{}{
		"put":         &PutRequest{Routing: Routing{ID: id, Origin: client1, TTL: TTLUnset, Flood: true}, Key: key, Version: 1},
		"putbatch":    &PutBatchRequest{Routing: Routing{ID: id, Origin: client1, TTL: TTLUnset, Flood: true}, Objs: []store.Object{{Key: key, Version: 1}}},
		"get":         &GetRequest{Routing: Routing{ID: id, Origin: client1, TTL: TTLUnset, Flood: true}, Key: key, Version: store.Latest},
		"delete":      &DeleteBatchRequest{Routing: Routing{ID: id, Origin: client1, TTL: TTLUnset, Flood: true}, Items: []DeleteItem{{Key: key, Version: store.Latest}}},
		"deletebatch": &DeleteBatchRequest{Routing: Routing{ID: id, Origin: client1, TTL: TTLUnset, Flood: true}, Items: []DeleteItem{{Key: key, Version: 1}}},
	}
	flooded := func(msg interface{}) bool {
		return reflect.ValueOf(msg).Elem().FieldByName("Flood").Bool()
	}
	for name, msg := range kinds {
		msg := msg
		t.Run(name, func(t *testing.T) {
			bothRuntimes(t, func(t *testing.T, sharded bool) {
				h := newRouteHarness(t, routeMine, sharded)
				h.learn(append(peersOf(0, 500, 8), peersOf(routeTarget, 900, 3)...)...)
				sent := h.deliver(client1, msg)
				if want := gossip.Fanout(routeN, 1); len(sent) != want {
					t.Fatalf("%d sends, want the fanout %d", len(sent), want)
				}
				seen := map[transport.NodeID]bool{}
				for _, env := range sent {
					if seen[env.To] {
						t.Fatalf("peer %v sampled twice: %+v", env.To, sent)
					}
					seen[env.To] = true
					if !flooded(env.Msg) {
						t.Fatalf("flooded copy lost the flag: %+v", env.Msg)
					}
				}
				h.wantHops(1, 0, 1)
			})
		})
	}
}

// TestGlobalPhaseNoHintFloods: a view that names no member of the
// target slice — empty, undecided, or other slices only — floods as it
// always did, and an empty view relays nothing.
func TestGlobalPhaseNoHintFloods(t *testing.T) {
	bothRuntimes(t, func(t *testing.T, sharded bool) {
		key := keyForSlice(t, routeTarget, routeK)

		h := newRouteHarness(t, routeMine, sharded)
		h.n.Bootstrap([]transport.NodeID{500, 501, 502}) // slices unknown
		h.learn(peersOf(0, 600, 2)...)
		sent := h.deliver(client1, routePut(key, TTLUnset, false))
		if len(sent) != 5 {
			t.Fatalf("%d sends over a 5-peer view with fanout %d, want 5", len(sent), gossip.Fanout(routeN, 1))
		}
		if m := sent[0].Msg.(*PutRequest); m.Flood {
			t.Errorf("flood for want of a hint set the flag: %+v", m)
		}
		h.wantHops(1, 0, 1)

		empty := newRouteHarness(t, routeMine, sharded)
		if sent := empty.deliver(client1, routePut(key, TTLUnset, false)); len(sent) != 0 {
			t.Fatalf("empty view relayed: %+v", sent)
		}
		empty.wantHops(0, 0, 0)
	})
}

// TestGlobalPhaseSendErrorTriesNextThenFloods: a hinted peer the fabric
// cannot reach costs one failed send, not the request.
func TestGlobalPhaseSendErrorTriesNextThenFloods(t *testing.T) {
	key := keyForSlice(t, routeTarget, routeK)
	view := append(peersOf(0, 500, 8), peersOf(routeTarget, 900, 3)...)

	h := newRouteHarness(t, routeMine, false)
	h.learn(view...)
	h.down[900], h.down[901] = true, true
	sent := h.deliver(client1, routePut(key, TTLUnset, false))
	if len(sent) == 0 || len(sent) > 3 || sent[len(sent)-1].To != 902 {
		t.Fatalf("sends = %+v, want failed tries then the live hinted peer 902", sent)
	}
	h.wantHops(1, 1, 0)

	all := newRouteHarness(t, routeMine, false)
	all.learn(view...)
	all.down[900], all.down[901], all.down[902] = true, true, true
	sent = all.deliver(client1, routePut(key, TTLUnset, false))
	if want := 3 + gossip.Fanout(routeN, 1); len(sent) != want {
		t.Fatalf("%d sends, want 3 failed hints then the fanout (%d)", len(sent), want)
	}
	all.wantHops(1, 0, 1)
}

// TestIntraRelaySkipsSender: an intra-phase copy is never relayed back
// to the mate it came from; an entry point, whose sender is no mate,
// relays to every mate.
func TestIntraRelaySkipsSender(t *testing.T) {
	bothRuntimes(t, func(t *testing.T, sharded bool) {
		key := keyForSlice(t, routeTarget, routeK)
		mates := peersOf(routeTarget, 900, 3)

		h := newRouteHarness(t, routeTarget, sharded)
		h.n.HandleMessage(context.Background(), transport.Envelope{
			From: 900, To: h.n.ID(), Msg: &MateReply{Slice: routeTarget, Mates: mates},
		})
		intra := routePut(key, 3, false)
		intra.Intra, intra.NoAck = true, true
		sent := h.deliver(901, intra)
		if len(sent) != 2 {
			t.Fatalf("intra relay sends = %+v, want the two other mates", sent)
		}
		for _, env := range sent {
			if env.To == 901 {
				t.Fatalf("intra copy echoed to its sender: %+v", sent)
			}
		}

		entry := newRouteHarness(t, routeTarget, sharded)
		entry.n.HandleMessage(context.Background(), transport.Envelope{
			From: 900, To: entry.n.ID(), Msg: &MateReply{Slice: routeTarget, Mates: mates},
		})
		global := routePut(key, 3, false)
		global.NoAck = true
		if sent := entry.deliver(77, global); len(sent) != 3 {
			t.Fatalf("entry point relayed to %d mates, want 3: %+v", len(sent), sent)
		}
	})
}

// TestRelaySampleUniformDistinct: the shard's sampler returns distinct
// in-range indexes, everything when asked for more than there is, and
// favours no index.
func TestRelaySampleUniformDistinct(t *testing.T) {
	n, _ := staticNode(t, 1, routeK)
	s := n.shards[0]
	if got := s.sample(5, 9); len(got) != 5 {
		t.Fatalf("sample(5, 9) = %v, want all five", got)
	}
	if got := s.sample(0, 3); len(got) != 0 {
		t.Fatalf("sample(0, 3) = %v", got)
	}
	const size, k, trials = 10, 3, 20000
	hits := make([]int, size)
	for i := 0; i < trials; i++ {
		picks := s.sample(size, k)
		if len(picks) != k {
			t.Fatalf("sample(%d, %d) = %v", size, k, picks)
		}
		seen := map[int]bool{}
		for _, p := range picks {
			if p < 0 || p >= size || seen[p] {
				t.Fatalf("sample(%d, %d) = %v: out of range or repeated", size, k, picks)
			}
			seen[p] = true
			hits[p]++
		}
	}
	for i, got := range hits {
		// Expected trials*k/size = 6000 per index; ±10 % is > 7 sigma.
		if got < 5400 || got > 6600 {
			t.Errorf("index %d drawn %d times of an expected 6000: %v", i, got, hits)
		}
	}
}

// TestRelaySampleAllocs pins the shard hot path: drawing a relay's
// peers touches nothing the size of the view.
func TestRelaySampleAllocs(t *testing.T) {
	n, _ := staticNode(t, 1, routeK)
	s := n.shards[0]
	s.sample(20, 8) // size the scratch buffer once
	if allocs := testing.AllocsPerRun(1000, func() { s.sample(20, 8) }); allocs != 0 {
		t.Fatalf("relay sampling allocates %.1f times per draw, want 0", allocs)
	}
}

var relaySampleSink []int

func BenchmarkRelaySample(b *testing.B) {
	n := NewNode(1, Config{Slices: routeK, Slicer: SlicerStatic, SystemSize: routeN, AntiEntropyEvery: -1, Seed: 1},
		store.NewMemory(), transport.SenderFunc(func(context.Context, transport.NodeID, interface{}) error { return nil }))
	s := n.shards[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relaySampleSink = s.sample(20, 8)
	}
}
