package core

import (
	"context"
	"testing"

	"dataflasks/internal/metrics"
	"dataflasks/internal/pss"
	"dataflasks/internal/sim"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

func desc(id transport.NodeID, slice int32) pss.Descriptor {
	return pss.Descriptor{ID: id, Slice: slice}
}

func TestIntraViewTouchAndRefresh(t *testing.T) {
	v := newIntraView(4, 10)
	v.Touch(desc(1, 0), 1)
	v.Touch(desc(2, 0), 1)
	if v.Len() != 2 {
		t.Fatalf("Len = %d", v.Len())
	}
	v.Touch(desc(1, 0), 5) // refresh
	v.Expire(12)           // 12-1 > 10 for node 2, 12-5 < 10 for node 1
	if v.Len() != 1 {
		t.Fatalf("after expire Len = %d", v.Len())
	}
	ids := v.IDs()
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("survivor = %v", ids)
	}
}

func TestIntraViewCapacityEvictsStalest(t *testing.T) {
	v := newIntraView(2, 100)
	v.Touch(desc(1, 0), 1)
	v.Touch(desc(2, 0), 5)
	v.Touch(desc(3, 0), 9) // evicts node 1 (stalest)
	if v.Len() != 2 {
		t.Fatalf("Len = %d", v.Len())
	}
	ids := v.IDs()
	if ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("members = %v, want [2 3]", ids)
	}
}

func TestIntraViewFullOfFreshKeepsExisting(t *testing.T) {
	v := newIntraView(2, 100)
	v.Touch(desc(1, 0), 7)
	v.Touch(desc(2, 0), 7)
	v.Touch(desc(3, 0), 7) // everyone equally fresh: newcomer dropped
	if v.Len() != 2 {
		t.Fatalf("Len = %d", v.Len())
	}
	for _, id := range v.IDs() {
		if id == 3 {
			t.Fatal("newcomer displaced a fresh member")
		}
	}
}

func TestIntraViewRemoveAndClear(t *testing.T) {
	v := newIntraView(4, 10)
	v.Touch(desc(1, 0), 1)
	v.Touch(desc(2, 0), 1)
	v.Remove(1)
	if v.Len() != 1 {
		t.Fatalf("Len after remove = %d", v.Len())
	}
	v.Clear()
	if v.Len() != 0 {
		t.Fatalf("Len after clear = %d", v.Len())
	}
}

func TestIntraViewRandomEmpty(t *testing.T) {
	v := newIntraView(4, 10)
	if _, ok := v.Random(sim.RNG(1, 2)); ok {
		t.Fatal("empty view returned a member")
	}
}

// newFlippingNode returns a node whose rank slicer the test feeds by
// hand: samples above its own attribute put it in slice 0, sustained
// samples below it move it to slice 3.
func newFlippingNode() *Node {
	sink := transport.SenderFunc(func(context.Context, transport.NodeID, interface{}) error { return nil })
	return NewNode(1, Config{
		Slices: 4, Slicer: SlicerRank, SystemSize: 100, AntiEntropyEvery: -1, Seed: 3,
	}, newTestStore(), sink)
}

func TestNodeSliceChangeClearsIntraView(t *testing.T) {
	// A node whose slicer flips slices must drop its old mates.
	n := newFlippingNode()

	// Rank slicer with attr drawn from id; feed samples that put us in
	// slice 0 first.
	for i := 0; i < 5; i++ {
		n.slicer.Observe(transport.NodeID(100+i), n.attr+1) // everyone above us
	}
	n.Tick(context.Background()) // the slicer decides, lastSlice follows
	if n.Slice() != 0 {
		t.Fatalf("slice = %d, want 0", n.Slice())
	}
	n.intra.Touch(desc(50, 0), n.round)
	if n.IntraViewSize() != 1 {
		t.Fatal("intra view not populated")
	}

	// Now sustained samples all below us → slice flips to 3.
	for r := 0; r < 10; r++ {
		for i := 0; i < 5; i++ {
			n.slicer.Observe(transport.NodeID(200+i), n.attr-1)
		}
		n.Tick(context.Background())
	}
	if n.Slice() != 3 {
		t.Fatalf("slice = %d after flip, want 3", n.Slice())
	}
	if n.IntraViewSize() != 0 {
		t.Error("slice change kept stale mates")
	}
}

// The first assignment is no change; every later change of slice counts
// once, in the round it happens, however long the node then stays. The
// slice_rounds gauge reads 0 in the round of a change and grows by one
// every round the slice holds; a SetSliceCount that moves the claim
// resets it like any change.
func TestNodeSliceChangesCounted(t *testing.T) {
	n := newFlippingNode()
	changes := func() uint64 { return n.Metrics().Get(metrics.SliceChanges) }
	held := func() uint64 { return n.Metrics().Get(metrics.SliceRounds) }
	for i := 0; i < 5; i++ {
		n.slicer.Observe(transport.NodeID(100+i), n.attr+1)
	}
	n.Tick(context.Background())
	if n.Slice() != 0 || changes() != 0 {
		t.Fatalf("after the first assignment: slice %d, slice_changes %d; want 0 and 0", n.Slice(), changes())
	}
	// The rank estimate walks down to slice 3, possibly through the
	// slices between; then it stays.
	var moves uint64
	for r, last := 0, n.Slice(); r < 20; r++ {
		for i := 0; i < 5; i++ {
			n.slicer.Observe(transport.NodeID(200+i), n.attr-1)
		}
		n.Tick(context.Background())
		if n.Slice() != last {
			moves++
			last = n.Slice()
		}
		if changes() != moves {
			t.Fatalf("round %d: slice_changes %d after %d moves", r, changes(), moves)
		}
	}
	if n.Slice() != 3 || moves == 0 {
		t.Fatalf("slice = %d after %d moves, want 3", n.Slice(), moves)
	}

	for r := uint64(1); r <= 3; r++ {
		before := held()
		for i := 0; i < 5; i++ {
			n.slicer.Observe(transport.NodeID(200+i), n.attr-1)
		}
		n.Tick(context.Background())
		if n.Slice() != 3 || held() != before+1 {
			t.Fatalf("slice %d held: slice_rounds %d after %d, want it one round longer", n.Slice(), held(), before)
		}
	}
	n.SetSliceCount(8)
	n.Tick(context.Background())
	if n.Slice() == 3 || changes() != moves+1 || held() != 0 {
		t.Fatalf("after SetSliceCount(8): slice %d, slice_changes %d, slice_rounds %d; want a new slice, %d changes, 0 rounds",
			n.Slice(), changes(), held(), moves+1)
	}
}

func newTestStore() store.Store { return store.NewMemory() }
