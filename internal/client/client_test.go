package client

import (
	"context"
	"errors"
	"testing"

	"dataflasks/internal/core"
	"dataflasks/internal/gossip"
	"dataflasks/internal/sim"
	"dataflasks/internal/slicing"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// capture records everything the client sends.
type capture struct {
	sent []transport.Envelope
}

func (c *capture) sender(from transport.NodeID) transport.Sender {
	return transport.SenderFunc(func(_ context.Context, to transport.NodeID, msg interface{}) error {
		c.sent = append(c.sent, transport.Envelope{From: from, To: to, Msg: msg})
		return nil
	})
}

func newTestCore(t *testing.T, cfg Config, nodes []transport.NodeID) (*Core, *capture) {
	t.Helper()
	cap := &capture{}
	lb := NewRandomLB(nodes, sim.RNG(1, 99))
	return NewCore(0xC0000001, cfg, cap.sender(0xC0000001), lb), cap
}

func TestPutCompletesOnAck(t *testing.T) {
	cl, cap := newTestCore(t, Config{}, []transport.NodeID{1, 2, 3})
	var res *Result
	cl.StartPutOpts("k", 1, []byte("v"), Opts{}, func(r Result) { res = &r })

	if len(cap.sent) != 1 {
		t.Fatalf("sent %d messages, want 1", len(cap.sent))
	}
	req, ok := cap.sent[0].Msg.(*core.PutRequest)
	if !ok {
		t.Fatalf("sent %#v", cap.sent[0].Msg)
	}
	if req.TTL != core.TTLUnset {
		t.Errorf("client stamped TTL %d itself", req.TTL)
	}
	if res != nil {
		t.Fatal("put completed before any ack")
	}

	cl.HandleMessage(transport.Envelope{From: 5, Msg: &core.PutAck{ID: req.ID, Version: 1}})
	if res == nil || res.Err != nil {
		t.Fatalf("put not completed: %+v", res)
	}
	if res.Acks != 1 {
		t.Errorf("acks = %d", res.Acks)
	}
	if cl.Pending() != 0 {
		t.Errorf("pending = %d", cl.Pending())
	}
}

func TestPutRequiresDistinctAckers(t *testing.T) {
	cl, cap := newTestCore(t, Config{PutAcks: 2}, []transport.NodeID{1})
	var res *Result
	cl.StartPutOpts("k", 1, nil, Opts{}, func(r Result) { res = &r })
	id := cap.sent[0].Msg.(*core.PutRequest).ID

	// The same replica acking twice must not satisfy PutAcks=2.
	cl.HandleMessage(transport.Envelope{From: 5, Msg: &core.PutAck{ID: id}})
	cl.HandleMessage(transport.Envelope{From: 5, Msg: &core.PutAck{ID: id}})
	if res != nil {
		t.Fatal("duplicate acker completed the put")
	}
	cl.HandleMessage(transport.Envelope{From: 6, Msg: &core.PutAck{ID: id}})
	if res == nil || res.Acks != 2 {
		t.Fatalf("res = %+v", res)
	}
}

func TestFireAndForgetPut(t *testing.T) {
	cl, _ := newTestCore(t, Config{PutAcks: -1}, []transport.NodeID{1})
	var res *Result
	cl.StartPutOpts("k", 1, nil, Opts{}, func(r Result) { res = &r })
	if res == nil || res.Err != nil {
		t.Fatalf("fire-and-forget put did not complete immediately: %+v", res)
	}
	if cl.Pending() != 0 {
		t.Errorf("pending = %d", cl.Pending())
	}
}

func TestGetFirstReplyWinsAndDuplicatesDropped(t *testing.T) {
	cl, cap := newTestCore(t, Config{}, []transport.NodeID{1})
	count := 0
	var res Result
	cl.StartGetOpts("k", 7, Opts{}, func(r Result) { count++; res = r })
	id := cap.sent[0].Msg.(*core.GetRequest).ID

	reply := &core.GetReply{ID: id, Version: 7, Value: []byte("x"), Slice: 3}
	cl.HandleMessage(transport.Envelope{From: 5, Msg: reply})
	cl.HandleMessage(transport.Envelope{From: 6, Msg: reply}) // epidemic duplicate
	cl.HandleMessage(transport.Envelope{From: 7, Msg: reply})

	if count != 1 {
		t.Fatalf("done callback ran %d times", count)
	}
	if res.Err != nil || string(res.Value) != "x" || res.Version != 7 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRetryUsesFreshIDAndContact(t *testing.T) {
	cl, cap := newTestCore(t, Config{TimeoutTicks: 2, Retries: 2}, []transport.NodeID{1, 2, 3, 4, 5, 6, 7, 8})
	var res *Result
	cl.StartGetOpts("k", 1, Opts{}, func(r Result) { res = &r })
	first := cap.sent[0].Msg.(*core.GetRequest).ID

	cl.Tick()
	cl.Tick() // deadline hits → retry
	if len(cap.sent) != 2 {
		t.Fatalf("sent %d messages after timeout, want 2", len(cap.sent))
	}
	second := cap.sent[1].Msg.(*core.GetRequest).ID
	if second == first {
		t.Error("retry reused the request id (would be dedup'd everywhere)")
	}
	if res != nil {
		t.Fatal("op completed during retries")
	}

	// A late reply to the OLD id is ignored...
	cl.HandleMessage(transport.Envelope{From: 5, Msg: &core.GetReply{ID: first, Value: []byte("old")}})
	if res != nil {
		t.Fatal("stale-id reply completed the op")
	}
	// ...while the new id completes it.
	cl.HandleMessage(transport.Envelope{From: 5, Msg: &core.GetReply{ID: second, Value: []byte("new")}})
	if res == nil || string(res.Value) != "new" || res.Retries != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRetriesExhaustToTimeout(t *testing.T) {
	cl, _ := newTestCore(t, Config{TimeoutTicks: 1, Retries: 2}, []transport.NodeID{1})
	var res *Result
	cl.StartGetOpts("k", 1, Opts{}, func(r Result) { res = &r })
	for i := 0; i < 10 && res == nil; i++ {
		cl.Tick()
	}
	if res == nil {
		t.Fatal("op never failed")
	}
	if !errors.Is(res.Err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", res.Err)
	}
	if res.Retries != 2 {
		t.Errorf("retries = %d, want 2", res.Retries)
	}
}

func TestAcksAccumulateAcrossRetries(t *testing.T) {
	cl, cap := newTestCore(t, Config{PutAcks: 2, TimeoutTicks: 2, Retries: 3}, []transport.NodeID{1})
	var res *Result
	cl.StartPutOpts("k", 1, nil, Opts{}, func(r Result) { res = &r })
	first := cap.sent[0].Msg.(*core.PutRequest).ID
	cl.HandleMessage(transport.Envelope{From: 5, Msg: &core.PutAck{ID: first}})
	cl.Tick()
	cl.Tick() // retry with fresh id
	second := cap.sent[1].Msg.(*core.PutRequest).ID
	// One more DISTINCT replica acking the second attempt completes.
	cl.HandleMessage(transport.Envelope{From: 6, Msg: &core.PutAck{ID: second}})
	if res == nil || res.Acks != 2 {
		t.Fatalf("res = %+v", res)
	}
}

// TestPutAckToSupersededAttemptCounts pins the retry-aliasing fix: a
// retry re-issues the put under a fresh request id, but acks provoked
// by the PREVIOUS attempt are from distinct replicas of the same
// (key, version) and may still be in flight. Dropping them made
// PutAcks>1 operations time out needlessly; the old id must stay
// aliased to the live op.
func TestPutAckToSupersededAttemptCounts(t *testing.T) {
	cl, cap := newTestCore(t, Config{PutAcks: 2, TimeoutTicks: 2, Retries: 3}, []transport.NodeID{1})
	var res *Result
	cl.StartPutOpts("k", 1, nil, Opts{}, func(r Result) { res = &r })
	first := cap.sent[0].Msg.(*core.PutRequest).ID

	cl.HandleMessage(transport.Envelope{From: 5, Msg: &core.PutAck{ID: first}})
	cl.Tick()
	cl.Tick() // deadline hits → retry under a fresh id
	second := cap.sent[1].Msg.(*core.PutRequest).ID
	if second == first {
		t.Fatal("retry reused the request id")
	}
	// The replica that already acked attempt one acking again — via the
	// old id — is still one replica and must not complete the op.
	cl.HandleMessage(transport.Envelope{From: 5, Msg: &core.PutAck{ID: first}})
	if res != nil {
		t.Fatal("duplicate replica completed the put via the old id")
	}
	// A second, distinct replica whose ack is addressed to the OLD
	// attempt id completes the op: the acks are split across attempts.
	cl.HandleMessage(transport.Envelope{From: 6, Msg: &core.PutAck{ID: first}})
	if res == nil || res.Err != nil || res.Acks != 2 || res.Retries != 1 {
		t.Fatalf("res = %+v, want 2 acks across attempts", res)
	}
	if cl.Pending() != 0 {
		t.Errorf("pending = %d", cl.Pending())
	}
	// Late acks to either id of the completed op are dropped.
	doneAcks := res.Acks
	cl.HandleMessage(transport.Envelope{From: 7, Msg: &core.PutAck{ID: first}})
	cl.HandleMessage(transport.Envelope{From: 7, Msg: &core.PutAck{ID: second}})
	if res.Acks != doneAcks || cl.Pending() != 0 {
		t.Error("late ack revived a completed op")
	}
}

// --- per-op options, delete, batch, cancel ---------------------------------

// TestPerOpAcksOverrideConfig pins the override semantics: Opts.Acks
// beats Config.PutAcks for that one op, zero inherits, negative means
// fire-and-forget — and neighbouring ops are untouched.
func TestPerOpAcksOverrideConfig(t *testing.T) {
	cl, cap := newTestCore(t, Config{PutAcks: 1}, []transport.NodeID{1})
	var strict, inherit, forget *Result
	cl.StartPutOpts("strict", 1, nil, Opts{Acks: 2}, func(r Result) { strict = &r })
	cl.StartPutOpts("inherit", 1, nil, Opts{}, func(r Result) { inherit = &r })
	cl.StartPutOpts("forget", 1, nil, Opts{Acks: -1}, func(r Result) { forget = &r })

	if forget == nil || forget.Err != nil {
		t.Fatalf("fire-and-forget override did not complete instantly: %+v", forget)
	}
	strictID := cap.sent[0].Msg.(*core.PutRequest).ID
	inheritID := cap.sent[1].Msg.(*core.PutRequest).ID

	cl.HandleMessage(transport.Envelope{From: 5, Msg: &core.PutAck{ID: strictID}})
	cl.HandleMessage(transport.Envelope{From: 5, Msg: &core.PutAck{ID: inheritID}})
	if inherit == nil || inherit.Acks != 1 {
		t.Fatalf("config-default op did not complete on 1 ack: %+v", inherit)
	}
	if strict != nil {
		t.Fatal("Acks:2 op completed on a single ack")
	}
	cl.HandleMessage(transport.Envelope{From: 6, Msg: &core.PutAck{ID: strictID}})
	if strict == nil || strict.Acks != 2 {
		t.Fatalf("Acks:2 op = %+v", strict)
	}
}

// TestPerOpTimeoutAndRetries: an op with a tighter per-op budget fails
// while config-default ops are still waiting.
func TestPerOpTimeoutAndRetries(t *testing.T) {
	cl, _ := newTestCore(t, Config{TimeoutTicks: 50, Retries: 3}, []transport.NodeID{1})
	var fast, slow *Result
	cl.StartGetOpts("fast", 1, Opts{TimeoutTicks: 1, Retries: -1}, func(r Result) { fast = &r })
	cl.StartGetOpts("slow", 1, Opts{}, func(r Result) { slow = &r })
	cl.Tick()
	if fast == nil || !errors.Is(fast.Err, ErrTimeout) || fast.Retries != 0 {
		t.Fatalf("per-op timeout/no-retry op = %+v", fast)
	}
	if slow != nil {
		t.Fatal("config-default op expired with the per-op one")
	}
}

func TestDeleteCompletesOnAcks(t *testing.T) {
	cl, cap := newTestCore(t, Config{PutAcks: 2}, []transport.NodeID{1})
	var res *Result
	cl.StartDeleteBatch([]core.DeleteItem{{Key: "k", Version: 7}}, Opts{}, func(r Result) { res = &r })
	req, ok := cap.sent[0].Msg.(*core.DeleteBatchRequest)
	if !ok || len(req.Items) != 1 || req.Items[0] != (core.DeleteItem{Key: "k", Version: 7}) || req.TTL != core.TTLUnset {
		t.Fatalf("sent %#v", cap.sent[0].Msg)
	}
	cl.HandleMessage(transport.Envelope{From: 5, Msg: &core.DeleteBatchAck{ID: req.ID}})
	cl.HandleMessage(transport.Envelope{From: 5, Msg: &core.DeleteBatchAck{ID: req.ID}}) // dup replica
	if res != nil {
		t.Fatal("duplicate replica completed the delete")
	}
	cl.HandleMessage(transport.Envelope{From: 6, Msg: &core.DeleteBatchAck{ID: req.ID}})
	if res == nil || res.Err != nil || res.Acks != 2 {
		t.Fatalf("res = %+v", res)
	}
}

func TestPutBatchCompletesOnAckAndRetriesWholeBatch(t *testing.T) {
	cl, cap := newTestCore(t, Config{TimeoutTicks: 2, Retries: 2}, []transport.NodeID{1, 2, 3, 4})
	objs := []store.Object{
		{Key: "a", Version: 1, Value: []byte("x")},
		{Key: "b", Version: 1, Value: []byte("y")},
	}
	var res *Result
	cl.StartPutBatch(objs, Opts{}, func(r Result) { res = &r })
	first, ok := cap.sent[0].Msg.(*core.PutBatchRequest)
	if !ok || len(first.Objs) != 2 || first.TTL != core.TTLUnset {
		t.Fatalf("sent %#v", cap.sent[0].Msg)
	}

	cl.Tick()
	cl.Tick() // deadline → retry under a fresh id, same payload
	second := cap.sent[1].Msg.(*core.PutBatchRequest)
	if second.ID == first.ID {
		t.Fatal("batch retry reused the request id")
	}
	if len(second.Objs) != 2 {
		t.Fatalf("retry carried %d objects, want the whole batch", len(second.Objs))
	}
	// An ack addressed to the superseded attempt id still counts.
	cl.HandleMessage(transport.Envelope{From: 5, Msg: &core.PutBatchAck{ID: first.ID, Stored: 2}})
	if res == nil || res.Err != nil || res.Acks != 1 || res.Retries != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestEmptyPutBatchCompletesImmediately(t *testing.T) {
	cl, cap := newTestCore(t, Config{}, []transport.NodeID{1})
	var res *Result
	cl.StartPutBatch(nil, Opts{}, func(r Result) { res = &r })
	if res == nil || res.Err != nil {
		t.Fatalf("empty batch: %+v", res)
	}
	if len(cap.sent) != 0 || cl.Pending() != 0 {
		t.Errorf("empty batch sent %d messages, %d pending", len(cap.sent), cl.Pending())
	}
}

func TestCancelRemovesPendingOp(t *testing.T) {
	cl, cap := newTestCore(t, Config{}, []transport.NodeID{1})
	fired := false
	id := cl.StartGetOpts("k", 1, Opts{}, func(Result) { fired = true })
	if cl.Pending() != 1 {
		t.Fatalf("pending = %d", cl.Pending())
	}
	if !cl.Cancel(id) {
		t.Fatal("Cancel did not find the op")
	}
	if cl.Pending() != 0 {
		t.Fatalf("pending after cancel = %d", cl.Pending())
	}
	// A late reply to the canceled id is dropped, and the callback
	// never runs — not even with an error.
	reqID := cap.sent[0].Msg.(*core.GetRequest).ID
	cl.HandleMessage(transport.Envelope{From: 5, Msg: &core.GetReply{ID: reqID, Value: []byte("late")}})
	for i := 0; i < 50; i++ {
		cl.Tick()
	}
	if fired {
		t.Fatal("canceled op's callback ran")
	}
	if cl.Cancel(id) {
		t.Fatal("second Cancel found a ghost op")
	}
}

// TestCancelBySupersededAttemptID: the public wrapper only knows the
// first attempt's id; after retries, Cancel must still find the live op
// through the alias table.
func TestCancelBySupersededAttemptID(t *testing.T) {
	cl, _ := newTestCore(t, Config{PutAcks: 2, TimeoutTicks: 1, Retries: 5}, []transport.NodeID{1})
	first := cl.StartPutOpts("k", 1, nil, Opts{}, nil)
	cl.Tick() // retry: first id now lives in the alias table
	if cl.Pending() != 1 {
		t.Fatalf("pending = %d", cl.Pending())
	}
	if !cl.Cancel(first) {
		t.Fatal("Cancel lost track of the op across a retry")
	}
	if cl.Pending() != 0 {
		t.Fatalf("pending after cancel = %d", cl.Pending())
	}
}

func TestEmptyLoadBalancerFailsAfterRetries(t *testing.T) {
	cl, cap := newTestCore(t, Config{TimeoutTicks: 1, Retries: 1}, nil)
	var res *Result
	cl.StartGetOpts("k", 1, Opts{}, func(r Result) { res = &r })
	if len(cap.sent) != 0 {
		t.Fatal("sent despite empty balancer")
	}
	for i := 0; i < 5 && res == nil; i++ {
		cl.Tick()
	}
	if res == nil || res.Err == nil {
		t.Fatalf("res = %+v, want timeout", res)
	}
}

// --- load balancers ---------------------------------------------------------

func TestRandomLBUniform(t *testing.T) {
	lb := NewRandomLB([]transport.NodeID{1, 2, 3, 4}, sim.RNG(5, 5))
	counts := map[transport.NodeID]int{}
	for i := 0; i < 4000; i++ {
		id, ok := lb.Contact("any")
		if !ok {
			t.Fatal("no contact")
		}
		counts[id]++
	}
	for id, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("node %v picked %d of 4000", id, c)
		}
	}
}

func TestRandomLBEmpty(t *testing.T) {
	lb := NewRandomLB(nil, sim.RNG(1, 1))
	if _, ok := lb.Contact("k"); ok {
		t.Error("empty balancer returned a contact")
	}
	lb.SetNodes([]transport.NodeID{9})
	if id, ok := lb.Contact("k"); !ok || id != 9 {
		t.Errorf("Contact = %v, %v", id, ok)
	}
}

// keyInSlice finds a key that maps to the wanted slice under k slices.
func keyInSlice(t *testing.T, want int32, k int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := "probe" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
		if slicing.KeySlice(key, k) == want {
			return key
		}
	}
	t.Fatal("no key found for slice")
	return ""
}

func TestRequestIDsAreClientScoped(t *testing.T) {
	cl, cap := newTestCore(t, Config{}, []transport.NodeID{1})
	cl.StartGetOpts("a", 1, Opts{}, nil)
	cl.StartGetOpts("b", 1, Opts{}, nil)
	id1 := cap.sent[0].Msg.(*core.GetRequest).ID
	id2 := cap.sent[1].Msg.(*core.GetRequest).ID
	if id1 == id2 {
		t.Error("two ops share a request id")
	}
	if gossip.RequestID(id1).Origin() != cl.ID() {
		t.Errorf("origin = %v, want %v", id1.Origin(), cl.ID())
	}
	if id1.Seq() == id2.Seq() {
		t.Error("sequence numbers repeat")
	}
}
