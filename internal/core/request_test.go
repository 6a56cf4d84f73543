package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"dataflasks/internal/gossip"
	"dataflasks/internal/metrics"
	"dataflasks/internal/pss"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// requestKind is one data-plane kind as the routing rows need it.
type requestKind struct {
	name string
	read bool
	// preload: the kind's work needs (key, 1) held already — a delete
	// removes it, a served get returns it.
	preload bool
	// build makes the kind's request for (key, 1) under header r; a batch
	// carries that one object.
	build func(r Routing, key string) request
	// empty makes the kind's empty batch (nil: not a batch kind).
	empty func(r Routing) request
	// answer is the message the kind sends the origin: a write's ack, a
	// read's reply.
	answer interface{}
	// applied reports whether a member did the kind's work on (key, 1): a
	// put is held, a delete's object is gone, a get changes nothing.
	applied func(st store.Store, key string) bool
}

func held(st store.Store, key string) bool { _, _, ok, _ := st.Get(key, 1); return ok }
func gone(st store.Store, key string) bool { return !held(st, key) }

var requestKinds = []requestKind{
	{name: "put", answer: &PutAck{}, applied: held,
		build: func(r Routing, key string) request {
			return &PutRequest{Routing: r, Key: key, Version: 1, Value: []byte("v")}
		}},
	{name: "putbatch", answer: &PutBatchAck{}, applied: held,
		build: func(r Routing, key string) request {
			return &PutBatchRequest{Routing: r, Objs: []store.Object{{Key: key, Version: 1, Value: []byte("v")}}}
		},
		empty: func(r Routing) request { return &PutBatchRequest{Routing: r} }},
	{name: "get", read: true, preload: true, answer: &GetReply{}, applied: func(store.Store, string) bool { return true },
		build: func(r Routing, key string) request { return &GetRequest{Routing: r, Key: key, Version: 1} }},
	// A single delete as the client sends it: a batch of one item, here
	// at the newest version, which the member resolves.
	{name: "delete", preload: true, answer: &DeleteBatchAck{}, applied: gone,
		build: func(r Routing, key string) request {
			return &DeleteBatchRequest{Routing: r, Items: []DeleteItem{{Key: key, Version: store.Latest}}}
		}},
	{name: "deletebatch", preload: true, answer: &DeleteBatchAck{}, applied: gone,
		build: func(r Routing, key string) request {
			return &DeleteBatchRequest{Routing: r, Items: []DeleteItem{{Key: key, Version: 1}}}
		},
		empty: func(r Routing) request { return &DeleteBatchRequest{Routing: r} }},
}

// refusingStore fails every call a request makes of it, as a closed
// engine would.
type refusingStore struct{ store.Store }

var errRefused = errors.New("store: refused")

func (refusingStore) Put(string, uint64, []byte) error             { return errRefused }
func (refusingStore) PutBatch([]store.Object) error                { return errRefused }
func (refusingStore) Delete(string, uint64) (bool, error)          { return false, errRefused }
func (refusingStore) DeleteBatch([]store.Deletion) ([]bool, error) { return nil, errRefused }
func (refusingStore) Get(string, uint64) ([]byte, uint64, bool, error) {
	return nil, 0, false, errRefused
}

const (
	routedAddr = "10.0.0.7:4000"
	hintedPeer = transport.NodeID(900)
	firstMate  = transport.NodeID(800)
	mateCount  = 3
)

// routed is a node whose sends are captured: a member of the key's
// slice (routeTarget) with three mates, or a node of another slice whose
// view names one target-slice peer among eight others.
type routed struct {
	t   *testing.T
	n   *Node
	cap *capture
	key string
}

func newRouted(t *testing.T, slice int32, st store.Store) *routed {
	t.Helper()
	id := findNodeInSlice(t, slice, routeK)
	cap := &capture{}
	n := NewNode(id, Config{
		Slices: routeK, Slicer: SlicerStatic, SystemSize: routeN, AntiEntropyEvery: -1, Seed: 1,
	}, st, cap.sender(id))
	var learn interface{} = &MateReply{Slice: slice, Mates: peersOf(slice, int(firstMate), mateCount)}
	if slice != routeTarget {
		learn = &pss.ShuffleReply{Sample: append(peersOf(0, 500, 8), pss.Descriptor{ID: hintedPeer, Slice: routeTarget})}
	}
	n.HandleMessage(context.Background(), transport.Envelope{From: firstMate, To: id, Msg: learn})
	return &routed{t: t, n: n, cap: cap, key: keyForSlice(t, routeTarget, routeK)}
}

// member is a routed node of the key's slice; preload makes it hold
// (key, 1) already.
func member(t *testing.T, preload bool) *routed {
	h := newRouted(t, routeTarget, store.NewMemory())
	if preload {
		if err := h.n.Store().Put(h.key, 1, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// header is a client's request header with the given phase fields.
func header(seq uint32, ttl uint8, intra, flood bool) Routing {
	return Routing{
		ID: gossip.MakeRequestID(client1, seq), Origin: client1, OriginAddr: routedAddr,
		TTL: ttl, Intra: intra, Flood: flood,
	}
}

// deliver hands the node req — from the client, or from its first mate
// when it is an intra copy — commits the put window with a round, and
// returns what the node answered the origin and the copies it passed on.
// The round's own control traffic is not the request's; anything else it
// sent fails the test.
func (h *routed) deliver(k requestKind, req request) (answers, copies []transport.Envelope) {
	h.t.Helper()
	from := client1
	if req.routing().Intra {
		from = firstMate
	}
	h.cap.sent = nil
	h.n.HandleMessage(context.Background(), transport.Envelope{From: from, To: h.n.ID(), Msg: req})
	sent := len(h.cap.sent)
	h.n.Tick(context.Background())
	for _, env := range h.cap.sent[sent:] {
		if _, data := RequestKey(env.Msg); data {
			h.t.Errorf("the round after a %s sent a data message: %+v", k.name, env)
		}
	}
	for _, env := range h.cap.sent[:sent] {
		switch {
		case reflect.TypeOf(env.Msg) == reflect.TypeOf(k.answer):
			answers = append(answers, env)
		case reflect.TypeOf(env.Msg) == reflect.TypeOf(req) && env.To != from:
			copies = append(copies, env)
		default:
			h.t.Errorf("unexpected send of a %s from %v: %+v", k.name, from, env)
		}
	}
	return answers, copies
}

func (h *routed) counter(c metrics.Counter) uint64 { return h.n.Metrics().Get(c) }

// wantCopies checks that n copies were passed on, every one with
// exactly the header want.
func wantCopies(t *testing.T, copies []transport.Envelope, n int, want Routing) {
	t.Helper()
	if len(copies) != n {
		t.Fatalf("%d copies passed on, want %d: %+v", len(copies), n, copies)
	}
	for _, env := range copies {
		if got := *env.Msg.(request).routing(); got != want {
			t.Errorf("copy to %v carries %+v, want %+v", env.To, got, want)
		}
	}
}

// wantAnswer checks that the origin got exactly one answer, or none.
func wantAnswer(t *testing.T, answers []transport.Envelope, want bool) {
	t.Helper()
	if !want && len(answers) != 0 {
		t.Fatalf("origin was answered %+v, want silence", answers)
	}
	if want && (len(answers) != 1 || answers[0].To != client1) {
		t.Fatalf("answers = %+v, want one to the origin %v", answers, client1)
	}
}

// TestRequestSkeleton runs every request kind through the same rows:
// the routing policy of §IV-B is one piece of code (handleData), and
// what follows holds for a put, a put batch, a get, a delete and a
// delete batch alike. Each row compares whole headers, so a hop changes
// what the row names and nothing else.
func TestRequestSkeleton(t *testing.T) {
	writes := func(k requestKind) bool { return !k.read }
	batches := func(k requestKind) bool { return k.empty != nil }
	rows := []struct {
		name string
		only func(requestKind) bool // nil: every kind
		run  func(t *testing.T, k requestKind)
	}{
		{"duplicate", nil, func(t *testing.T, k requestKind) {
			h := member(t, k.preload)
			req := k.build(header(1, TTLUnset, false, false), h.key)
			if answers, copies := h.deliver(k, req); len(answers)+len(copies) == 0 {
				t.Fatal("first delivery did nothing")
			}
			if answers, copies := h.deliver(k, req); len(answers)+len(copies) != 0 {
				t.Fatalf("duplicate provoked traffic: %+v %+v", answers, copies)
			}
			if got := h.counter(metrics.DuplicatesSuppressed); got != 1 {
				t.Errorf("duplicates_suppressed = %d, want 1", got)
			}
			if !h.n.HasSeen(req.routing().ID) {
				t.Error("HasSeen = false")
			}
		}},
		{"foreign_intra_dropped", nil, func(t *testing.T, k requestKind) {
			h := newRouted(t, routeMine, store.NewMemory())
			answers, copies := h.deliver(k, k.build(header(1, 3, true, false), h.key))
			if len(answers)+len(copies) != 0 || h.n.Store().Count() != 0 || h.counter(metrics.RequestsRelayed) != 0 {
				t.Fatalf("stale intra copy was not dropped: %+v %+v", answers, copies)
			}
		}},
		{"foreign_global", nil, func(t *testing.T, k requestKind) {
			h := newRouted(t, routeMine, store.NewMemory())
			budget := h.n.putTTL()
			if k.read {
				budget = h.n.getTTL()
			}
			if h.n.putTTL() == h.n.getTTL() {
				t.Fatal("put and get budgets coincide: the row cannot tell them apart")
			}

			// First hop from a client: the budget is stamped, one directed copy.
			want := header(1, TTLUnset, false, false)
			answers, copies := h.deliver(k, k.build(want, h.key))
			want.TTL = budget - 1
			wantCopies(t, copies, 1, want)
			if copies[0].To != hintedPeer {
				t.Errorf("directed copy went to %v, want the target-slice peer %v", copies[0].To, hintedPeer)
			}
			wantAnswer(t, answers, false)

			// A later hop: TTL less one, and a second directed hop marks the copy.
			want = header(2, 5, false, false)
			_, copies = h.deliver(k, k.build(want, h.key))
			want.TTL, want.Flood = 4, true
			wantCopies(t, copies, 1, want)

			// Flood set: the fanout, flag kept.
			want = header(3, 5, false, true)
			_, copies = h.deliver(k, k.build(want, h.key))
			want.TTL = 4
			wantCopies(t, copies, gossip.Fanout(routeN, 1), want)

			// A spent budget ends the phase.
			_, copies = h.deliver(k, k.build(header(4, 0, false, false), h.key))
			wantCopies(t, copies, 0, Routing{})

			if h.n.Store().Count() != 0 {
				t.Error("a node of another slice stored the object")
			}
			relayed, directed, flooded := h.counter(metrics.RequestsRelayed), h.counter(metrics.RequestsDirected), h.counter(metrics.RequestsFlooded)
			if relayed != 3 || directed != 2 || flooded != 1 {
				t.Errorf("relayed/directed/flooded = %d/%d/%d, want 3/2/1", relayed, directed, flooded)
			}
		}},
		{"entry", nil, func(t *testing.T, k requestKind) {
			h := member(t, k.preload)
			want := header(1, TTLUnset, false, false)
			answers, copies := h.deliver(k, k.build(want, h.key))
			if !k.applied(h.n.Store(), h.key) {
				t.Error("slice entry did not apply the request")
			}
			wantAnswer(t, answers, true)
			if k.read {
				wantCopies(t, copies, 0, Routing{}) // answered: the read is finished here
				return
			}
			// No mate acks an intra copy: it travels without the address.
			want.Intra, want.TTL, want.OriginAddr = true, h.n.intraTTL(), ""
			wantCopies(t, copies, mateCount, want)
		}},
		// A get carries no NoAck: the reply is the point of a read.
		{"entry_noack", writes, func(t *testing.T, k requestKind) {
			h := member(t, k.preload)
			want := header(1, TTLUnset, false, false)
			want.NoAck = true
			answers, copies := h.deliver(k, k.build(want, h.key))
			if !k.applied(h.n.Store(), h.key) {
				t.Error("fire-and-forget request was not applied")
			}
			wantAnswer(t, answers, false)
			want.Intra, want.TTL, want.OriginAddr = true, h.n.intraTTL(), ""
			wantCopies(t, copies, mateCount, want)
		}},
		{"entry_nothing_to_answer", nil, func(t *testing.T, k requestKind) {
			// The store refuses a write, or the member misses a read: the
			// origin hears nothing from this node and the mates still get
			// their copy — a read's with the address, they answer it.
			sts := []store.Store{refusingStore{store.NewMemory()}}
			if k.read {
				sts = append(sts, store.NewMemory())
			}
			for _, st := range sts {
				h := newRouted(t, routeTarget, st)
				want := header(1, TTLUnset, false, false)
				answers, copies := h.deliver(k, k.build(want, h.key))
				wantAnswer(t, answers, false)
				want.Intra, want.TTL = true, h.n.intraTTL()
				if !k.read {
					want.OriginAddr = ""
				}
				wantCopies(t, copies, mateCount, want)
			}
		}},
		{"intra_copy", nil, func(t *testing.T, k requestKind) {
			// A write is applied and never acknowledged; a read this
			// member misses stays alive. One hop fewer is left, and the
			// mate it came from is spared.
			h := member(t, k.preload && !k.read)
			want := header(1, 3, true, false)
			answers, copies := h.deliver(k, k.build(want, h.key))
			if !k.applied(h.n.Store(), h.key) {
				t.Error("intra copy was not applied")
			}
			wantAnswer(t, answers, false)
			want.TTL = 2
			wantCopies(t, copies, mateCount-1, want)
		}},
		{"intra_copy_spent", nil, func(t *testing.T, k requestKind) {
			h := member(t, k.preload && !k.read)
			answers, copies := h.deliver(k, k.build(header(1, 0, true, false), h.key))
			if !k.applied(h.n.Store(), h.key) {
				t.Error("last intra copy was not applied")
			}
			wantAnswer(t, answers, false)
			wantCopies(t, copies, 0, Routing{})
			if got := h.counter(metrics.RequestsRelayed); got != 0 {
				t.Errorf("requests_relayed = %d, want 0", got)
			}
		}},
		{"empty_batch", batches, func(t *testing.T, k requestKind) {
			// Nothing to route, but the id is spent: dropped after the
			// dedup mark, on a member and on a node of another slice.
			for _, slice := range []int32{routeTarget, routeMine} {
				h := newRouted(t, slice, store.NewMemory())
				req := k.empty(header(1, TTLUnset, false, false))
				for range 2 {
					if answers, copies := h.deliver(k, req); len(answers)+len(copies) != 0 {
						t.Fatalf("empty batch provoked traffic: %+v %+v", answers, copies)
					}
				}
				if !h.n.HasSeen(req.routing().ID) || h.counter(metrics.DuplicatesSuppressed) != 1 {
					t.Errorf("empty batch: HasSeen=%v duplicates_suppressed=%d, want marked and the second delivery counted",
						h.n.HasSeen(req.routing().ID), h.counter(metrics.DuplicatesSuppressed))
				}
			}
		}},
	}
	for _, k := range requestKinds {
		for _, row := range rows {
			if row.only == nil || row.only(k) {
				t.Run(k.name+"/"+row.name, func(t *testing.T) { row.run(t, k) })
			}
		}
	}
}
