package client

import (
	"fmt"
	"slices"
	"testing"

	"dataflasks/internal/core"
	"dataflasks/internal/gossip"
	"dataflasks/internal/pss"
	"dataflasks/internal/sim"
	"dataflasks/internal/slicing"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

const dirSlices = 4

// book records what the directory teaches the fabric.
type book map[transport.NodeID]string

func (b book) Learn(id transport.NodeID, addr string) { b[id] = addr }

// newDirectoryCore builds a core over the slice directory with the
// random contact list {1, 2, 3}; members the tests teach it get ids from
// 40 up, so a contact's id says which list it came from.
func newDirectoryCore(t *testing.T, cfg Config) (*Core, *Directory, *capture, book) {
	t.Helper()
	cap, b := &capture{}, book{}
	out := cap.sender(0xC0000001)
	random := NewRandomLB([]transport.NodeID{1, 2, 3}, sim.RNG(1, 99))
	dir := NewDirectory(random, dirSlices, sim.RNG(1, 7), out, b)
	return NewCore(0xC0000001, cfg, out, dir), dir, cap, b
}

// requestID reads the request id off any of the four request kinds.
func requestID(t *testing.T, msg interface{}) gossip.RequestID {
	t.Helper()
	switch m := msg.(type) {
	case *core.PutRequest:
		return m.ID
	case *core.GetRequest:
		return m.ID
	case *core.PutBatchRequest:
		return m.ID
	case *core.DeleteBatchRequest:
		return m.ID
	}
	t.Fatalf("not a request: %#v", msg)
	return 0
}

func isRandomContact(id transport.NodeID) bool { return id >= 1 && id <= 3 }

// (a) A slice's contact is drawn once per client tick: every request of
// the tick goes to the pinned member, and over many ticks the known
// members share the pins evenly — after any tick, no member has been
// pinned more than once beyond another.
func TestDirectoryContactsSpreadUniformly(t *testing.T) {
	cl, dir, _, _ := newDirectoryCore(t, Config{})
	key := keyInSlice(t, 2, dirSlices)
	for _, member := range []transport.NodeID{40, 41, 42} {
		dir.learn(key, member)
	}
	const ticks, perTick = 3000, 4
	counts := map[transport.NodeID]int{}
	for i := 0; i < ticks; i++ {
		pin := tickContact(t, dir, key, perTick)
		counts[pin]++
		cl.Tick() // Core.Tick unpins
		if lo, hi := min(counts[40], counts[41], counts[42]), max(counts[40], counts[41], counts[42]); hi-lo > 1 {
			t.Fatalf("after %d ticks the pins are %v, want within one of each other", i+1, counts)
		}
	}
	for _, member := range []transport.NodeID{40, 41, 42} {
		if c := counts[member]; c < 850 || c > 1150 {
			t.Errorf("member %v was pinned in %d of %d ticks, want 1000 ± 15%%", member, c, ticks)
		}
	}
	if len(counts) != 3 {
		t.Errorf("pins outside the known members: %v", counts)
	}
	if st := dir.stats; st.Hits != ticks*perTick || st.Fallbacks != 0 {
		t.Errorf("stats = %+v, want %d hits", st, ticks*perTick)
	}
	// Another slice is still unknown: the random list answers.
	if id, _ := dir.Contact(keyInSlice(t, 0, dirSlices)); !isRandomContact(id) {
		t.Errorf("unknown slice contacted %v, want a random-list node", id)
	}
	if st := dir.stats; st.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", st.Fallbacks)
	}
}

// A pin leaves with its member: once the pinned member is evicted, or
// its slot in a full slice goes to a node that proved itself, the next
// request of the same tick draws a new pin from who is left. Another
// member's departure keeps the pin.
func TestDirectoryPinLeavesWithItsMember(t *testing.T) {
	key := keyInSlice(t, 1, dirSlices)

	t.Run("evicted", func(t *testing.T) {
		_, dir, _, _ := newDirectoryCore(t, Config{})
		for _, member := range []transport.NodeID{40, 41, 42} {
			dir.learn(key, member)
		}
		pin := tickContact(t, dir, key, 3)
		other := dir.members[1][0]
		if other == pin {
			other = dir.members[1][1]
		}
		dir.evict(key, other)
		if id := tickContact(t, dir, key, 3); id != pin {
			t.Fatalf("evicting %v moved the pin from %v to %v", other, pin, id)
		}
		dir.evict(key, pin)
		next := tickContact(t, dir, key, 3)
		if next == pin || !slices.Contains(dir.members[1], next) {
			t.Fatalf("contact after the pin's eviction = %v, want a remaining member of %v", next, dir.members[1])
		}
	})

	t.Run("replaced in a full slice", func(t *testing.T) {
		_, dir, _, _ := newDirectoryCore(t, Config{})
		for id := transport.NodeID(40); id < 40+maxSliceMembers; id++ {
			dir.learn(key, id)
		}
		pin := tickContact(t, dir, key, 3)
		for id := transport.NodeID(100); slices.Contains(dir.members[1], pin); id++ {
			if got := tickContact(t, dir, key, 3); got != pin {
				t.Fatalf("the pin moved from %v to %v while it was still a member", pin, got)
			}
			if id == 1000 {
				t.Fatal("the pinned member's slot was never drawn")
			}
			dir.learn(key, id)
		}
		next := tickContact(t, dir, key, 3)
		if next == pin || !slices.Contains(dir.members[1], next) {
			t.Fatalf("contact after the pin was replaced = %v, want a member of %v", next, dir.members[1])
		}
	})
}

// A member that leaves the slice loses the turns it was still owed, and
// one that joins takes its first in the next round.
func TestDirectoryTurnsFollowMembership(t *testing.T) {
	_, dir, _, _ := newDirectoryCore(t, Config{})
	key := keyInSlice(t, 1, dirSlices)
	for _, member := range []transport.NodeID{40, 41, 42} {
		dir.learn(key, member)
	}
	first := tickContact(t, dir, key, 2)
	dir.endTick()
	gone := transport.NodeID(40)
	if first == gone {
		gone = 41
	}
	dir.evict(key, gone)
	if rest := tickContact(t, dir, key, 2); rest == first || rest == gone {
		t.Fatalf("the round's last turn went to %v, want the member other than %v and the evicted %v", rest, first, gone)
	}
	dir.endTick()
	dir.learn(key, 43)
	var round []transport.NodeID
	for range dir.members[1] {
		round = append(round, tickContact(t, dir, key, 2))
		dir.endTick()
	}
	if !slices.Equal(sortedIDs(round), sortedIDs(dir.members[1])) {
		t.Errorf("next round pinned %v, want each of %v once", round, dir.members[1])
	}
}

// (b) An attempt that carries Flood never enters its slice through the
// directory: only global-phase copies are acknowledged, so a two-ack put
// sent to a member would collect one ack per attempt. That the member is
// the client's local node changes nothing.
func TestFloodAttemptsBypassDirectory(t *testing.T) {
	key := keyInSlice(t, 2, dirSlices)
	objs := []store.Object{{Key: key, Version: 1}}
	items := []core.DeleteItem{{Key: key, Version: 1}}
	latest := []core.DeleteItem{{Key: key, Version: store.Latest}}
	cases := []struct {
		name  string
		start func(cl *Core)
	}{
		{"put acks=2", func(cl *Core) { cl.StartPutOpts(key, 1, nil, Opts{Acks: 2}, nil) }},
		{"putbatch acks=2", func(cl *Core) { cl.StartPutBatch(objs, Opts{Acks: 2}, nil) }},
		{"delete", func(cl *Core) { cl.StartDeleteBatch(latest, Opts{}, nil) }},
		{"deletebatch", func(cl *Core) { cl.StartDeleteBatch(items, Opts{}, nil) }},
		{"forced", func(cl *Core) { cl.StartGetOpts(key, store.Latest, Opts{Flood: true}, nil) }},
	}
	for _, local := range []transport.NodeID{0, 40} {
		suffix := ""
		if local != 0 {
			suffix = ", member is local"
		}
		for _, tc := range cases {
			t.Run(tc.name+suffix, func(t *testing.T) {
				cl, dir, cap, _ := newDirectoryCore(t, Config{TimeoutTicks: 1, Retries: 2})
				dir.SetLocal(local)
				dir.learn(key, 40)
				sent := len(cap.sent) // the mate query
				tc.start(cl)
				cl.Tick() // and the retry
				for _, env := range cap.sent[sent:] {
					if !floodOf(env.Msg) {
						t.Fatalf("%#v does not ask for the flood", env.Msg)
					}
					if !isRandomContact(env.To) {
						t.Errorf("flood attempt went to directory member %v", env.To)
					}
				}
				if st := dir.stats; st.Hits != 0 || st.Local != 0 || st.Fallbacks != 2 {
					t.Errorf("stats = %+v, want 0 hits and 2 fallbacks", st)
				}
			})
		}

		t.Run("retry of a plain put"+suffix, func(t *testing.T) {
			cl, dir, cap, _ := newDirectoryCore(t, Config{TimeoutTicks: 1, Retries: 1})
			dir.SetLocal(local)
			dir.learn(key, 40)
			sent := len(cap.sent)
			cl.StartPutOpts(key, 1, nil, Opts{}, nil)
			if first := cap.sent[sent]; first.To != 40 || floodOf(first.Msg) {
				t.Fatalf("attempt 1 went to %v (flood %v), want member 40 without the flood", first.To, floodOf(first.Msg))
			}
			cl.Tick()
			retry := cap.sent[len(cap.sent)-1]
			if !isRandomContact(retry.To) || !floodOf(retry.Msg) {
				t.Errorf("retry went to %v (flood %v), want a random contact with the flood", retry.To, floodOf(retry.Msg))
			}
		})
	}
}

// (c) Whoever acknowledges a write or answers a read holds the key, so
// it is filed under the key's slice.
func TestDirectoryLearnsFromAcksAndReplies(t *testing.T) {
	key := keyInSlice(t, 1, dirSlices)
	objs := []store.Object{{Key: key, Version: 1}}
	cases := []struct {
		name  string
		start func(cl *Core)
		reply func(id gossip.RequestID) interface{}
		learn bool
	}{
		{"put ack", func(cl *Core) { cl.StartPutOpts(key, 1, nil, Opts{}, nil) },
			func(id gossip.RequestID) interface{} { return &core.PutAck{ID: id} }, true},
		{"batch ack", func(cl *Core) { cl.StartPutBatch(objs, Opts{}, nil) },
			func(id gossip.RequestID) interface{} { return &core.PutBatchAck{ID: id, Stored: 1} }, true},
		{"delete ack", func(cl *Core) { cl.StartDeleteBatch([]core.DeleteItem{{Key: key, Version: 1}}, Opts{}, nil) },
			func(id gossip.RequestID) interface{} { return &core.DeleteBatchAck{ID: id} }, true},
		{"get reply", func(cl *Core) { cl.StartGetOpts(key, store.Latest, Opts{}, nil) },
			func(id gossip.RequestID) interface{} { return &core.GetReply{ID: id, Slice: 1} }, true},
		{"get reply without a slice", func(cl *Core) { cl.StartGetOpts(key, store.Latest, Opts{}, nil) },
			func(id gossip.RequestID) interface{} { return &core.GetReply{ID: id, Slice: slicing.SliceUnknown} }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, dir, cap, _ := newDirectoryCore(t, Config{})
			tc.start(cl)
			id := requestID(t, cap.sent[0].Msg)
			cl.HandleMessage(transport.Envelope{From: 40, Msg: tc.reply(id)})
			members := dir.members[1]
			if tc.learn != (len(members) == 1 && members[0] == 40) {
				t.Fatalf("members of slice 1 = %v, learn = %v", members, tc.learn)
			}
			if !tc.learn {
				return
			}
			// The next request for the slice goes straight to the member.
			cl.StartGetOpts(key, store.Latest, Opts{}, nil)
			if last := cap.sent[len(cap.sent)-1]; last.To != 40 {
				t.Errorf("next request went to %v, want the learned member", last.To)
			}
		})
	}
}

// A reply batch is its answers: each completes its own op, a duplicate
// and a foreign id inside it are dropped as they are alone, and the
// directory learns the sender from every answer.
func TestRepliesCompleteEachOp(t *testing.T) {
	cl, dir, cap, _ := newDirectoryCore(t, Config{})
	putKey, getKey := keyInSlice(t, 1, dirSlices), keyInSlice(t, 2, dirSlices)
	var done []Result
	record := func(r Result) { done = append(done, r) }
	cl.StartPutOpts(putKey, 3, []byte("v"), Opts{}, record)
	putID := requestID(t, cap.sent[len(cap.sent)-1].Msg)
	cl.StartGetOpts(getKey, store.Latest, Opts{}, record)
	getID := requestID(t, cap.sent[len(cap.sent)-1].Msg)

	cl.HandleMessage(transport.Envelope{From: 40, Msg: &core.Replies{Msgs: []interface{}{
		&core.PutAck{ID: putID, Version: 3},
		&core.GetReply{ID: getID, Version: 9, Value: []byte("x"), Slice: 2},
		&core.PutAck{ID: putID, Version: 3},
		&core.PutAck{ID: gossip.MakeRequestID(0xC0000002, 1), Version: 1},
	}}})

	if len(done) != 2 {
		t.Fatalf("%d ops completed, want the put and the get: %+v", len(done), done)
	}
	if put := done[0]; put.ID != putID || put.Err != nil || put.Acks != 1 {
		t.Errorf("put result = %+v, want one ack, no error", put)
	}
	if get := done[1]; get.ID != getID || get.Err != nil || get.Version != 9 || string(get.Value) != "x" {
		t.Errorf("get result = %+v, want v9 = x", get)
	}
	if cl.Pending() != 0 {
		t.Errorf("%d ops still pending", cl.Pending())
	}
	for _, slice := range []int32{1, 2} {
		if members := dir.members[slice]; len(members) != 1 || members[0] != 40 {
			t.Errorf("members of slice %d = %v, want the sender", slice, members)
		}
	}
}

// (d) A contact whose request another node acknowledged relayed it, so
// it is no member; one that lets an attempt time out is dropped too.
func TestDirectoryEvictsRelayingAndSilentContacts(t *testing.T) {
	key := keyInSlice(t, 3, dirSlices)

	t.Run("ack from another node", func(t *testing.T) {
		cl, dir, cap, _ := newDirectoryCore(t, Config{})
		dir.learn(key, 40)
		cl.StartPutOpts(key, 1, nil, Opts{}, nil)
		put := cap.sent[len(cap.sent)-1]
		if put.To != 40 {
			t.Fatalf("put went to %v, want member 40", put.To)
		}
		cl.HandleMessage(transport.Envelope{From: 41, Msg: &core.PutAck{ID: put.Msg.(*core.PutRequest).ID}})
		if members := dir.members[3]; len(members) != 1 || members[0] != 41 {
			t.Fatalf("members = %v, want the acker alone", members)
		}
		if st := dir.stats; st.Evictions != 1 {
			t.Errorf("evictions = %d, want 1", st.Evictions)
		}
		// The pin left with the relaying contact: the tick's next request
		// goes to the acker.
		cl.StartPutOpts(key, 2, nil, Opts{}, nil)
		if to := cap.sent[len(cap.sent)-1].To; to != 41 {
			t.Errorf("next put of the tick went to %v, want the acker 41", to)
		}
	})

	t.Run("ack from the contact", func(t *testing.T) {
		cl, dir, cap, _ := newDirectoryCore(t, Config{})
		dir.learn(key, 40)
		cl.StartPutOpts(key, 1, nil, Opts{}, nil)
		put := cap.sent[len(cap.sent)-1]
		cl.HandleMessage(transport.Envelope{From: 40, Msg: &core.PutAck{ID: put.Msg.(*core.PutRequest).ID}})
		if st := dir.stats; st.Evictions != 0 || len(dir.members[3]) != 1 {
			t.Errorf("contact that acked was evicted: %+v, members %v", st, dir.members[3])
		}
	})

	t.Run("several ackers of a flood", func(t *testing.T) {
		// A flooded attempt starts at a random contact, so acks from other
		// nodes say nothing against it — or against a member the flood
		// also reached.
		cl, dir, cap, _ := newDirectoryCore(t, Config{})
		dir.learn(key, 1)
		cl.StartPutOpts(key, 1, nil, Opts{Acks: 2}, nil)
		put := cap.sent[len(cap.sent)-1].Msg.(*core.PutRequest)
		cl.HandleMessage(transport.Envelope{From: 41, Msg: &core.PutAck{ID: put.ID}})
		cl.HandleMessage(transport.Envelope{From: 42, Msg: &core.PutAck{ID: put.ID}})
		if st := dir.stats; st.Evictions != 0 || len(dir.members[3]) != 3 {
			t.Errorf("flood acks evicted: %+v, members %v", st, dir.members[3])
		}
	})

	t.Run("timeout", func(t *testing.T) {
		cl, dir, cap, _ := newDirectoryCore(t, Config{TimeoutTicks: 1, Retries: 1})
		dir.learn(key, 40)
		cl.StartGetOpts(key, store.Latest, Opts{}, nil)
		if to := cap.sent[len(cap.sent)-1].To; to != 40 {
			t.Fatalf("get went to %v, want member 40", to)
		}
		cl.Tick()
		if st := dir.stats; st.Evictions != 1 || len(dir.members[3]) != 0 {
			t.Errorf("silent member still listed: %+v, members %v", st, dir.members[3])
		}
	})
}

// A flooded attempt starts at a random node that only relays, and a
// multi-ack put may wait in vain although its contact did its part
// (intra-slice copies are not acknowledged): such a timeout says
// nothing against the contact.
func TestFloodTimeoutKeepsContact(t *testing.T) {
	cl, dir, _, _ := newDirectoryCore(t, Config{TimeoutTicks: 1, Retries: 1})
	key := keyInSlice(t, 3, dirSlices)
	for _, contact := range []transport.NodeID{1, 2, 3} {
		dir.learn(key, contact)
	}
	cl.StartPutOpts(key, 1, nil, Opts{Acks: 2}, nil)
	cl.Tick()
	cl.Tick()
	if st := dir.stats; st.Evictions != 0 || len(dir.members[3]) != 3 {
		t.Errorf("a flood attempt's timeout evicted its contact: %+v, members %v", st, dir.members[3])
	}
}

// (e) The first member learned is asked for its mates; the reply fills
// the slice up to the bound and teaches the addresses, and replies
// nobody asked for are dropped.
func TestDirectoryMateQueryFillsSlice(t *testing.T) {
	_, dir, cap, b := newDirectoryCore(t, Config{})
	key := keyInSlice(t, 2, dirSlices)
	dir.learn(key, 40)
	if len(cap.sent) != 1 {
		t.Fatalf("sent %d messages after the first member, want one mate query", len(cap.sent))
	}
	query, ok := cap.sent[0].Msg.(*core.MateQuery)
	if !ok || query.Slice != 2 || cap.sent[0].To != 40 {
		t.Fatalf("sent %#v to %v, want MateQuery{2} to member 40", cap.sent[0].Msg, cap.sent[0].To)
	}
	dir.learn(key, 40) // nothing new: no second query
	if len(cap.sent) != 1 {
		t.Fatalf("re-learning a member sent %d messages", len(cap.sent)-1)
	}

	// A reply for a slice nobody asked about is dropped.
	dir.addMates(&core.MateReply{Slice: 3, Mates: []pss.Descriptor{{ID: 90, Slice: 3, Addr: "h:90"}}})
	if len(dir.members[3]) != 0 || len(b) != 0 {
		t.Fatalf("unsolicited reply filed %v, taught %v", dir.members[3], b)
	}

	mates := []pss.Descriptor{{ID: 40, Slice: 2, Addr: "h:40"}}
	for id := transport.NodeID(50); id < 80; id++ {
		mates = append(mates, pss.Descriptor{ID: id, Slice: 2, Addr: fmt.Sprintf("h:%d", id)})
	}
	reply := &core.MateReply{Slice: 2, Mates: mates}
	dir.addMates(reply)
	members := dir.members[2]
	if len(members) != maxSliceMembers {
		t.Fatalf("members = %d, want the bound %d", len(members), maxSliceMembers)
	}
	if len(b) != maxSliceMembers-1 {
		t.Errorf("taught %d addresses, want one per new member (%d)", len(b), maxSliceMembers-1)
	}
	for _, m := range members[1:] {
		if b[m] != fmt.Sprintf("h:%d", m) {
			t.Errorf("member %v taught as %q", m, b[m])
		}
	}
	// The same reply again answers no question.
	dir.members[2] = dir.members[2][:1]
	dir.addMates(reply)
	if len(dir.members[2]) != 1 {
		t.Errorf("a second reply to one query was filed: %v", dir.members[2])
	}
}

// A member's eviction asks a remaining member for a replacement, and a
// replier that has not noticed yet cannot bring the evicted node back;
// the periodic refresh asks again for every slice with room.
func TestDirectoryRequeriesAfterEvictionAndOnRefresh(t *testing.T) {
	cl, dir, cap, _ := newDirectoryCore(t, Config{})
	key := keyInSlice(t, 2, dirSlices)
	dir.learn(key, 40)
	dir.addMates(&core.MateReply{Slice: 2, Mates: []pss.Descriptor{{ID: 41, Slice: 2}}})
	sent := len(cap.sent)

	dir.evict(key, 41)
	if len(cap.sent) != sent+1 || cap.sent[sent].To != 40 {
		t.Fatalf("eviction sent %v, want one query to the remaining member", cap.sent[sent:])
	}
	dir.addMates(&core.MateReply{Slice: 2, Mates: []pss.Descriptor{{ID: 41, Slice: 2}, {ID: 42, Slice: 2}}})
	if m := dir.members[2]; len(m) != 2 || slices.Contains(m, 41) || !slices.Contains(m, 42) {
		t.Fatalf("members = %v, want 40 and 42 (41 was just evicted)", m)
	}

	sent = len(cap.sent)
	for i := 0; i < directoryRefreshTicks; i++ {
		cl.Tick()
	}
	if len(cap.sent) != sent+1 {
		t.Fatalf("refresh sent %d messages, want one query for the one known slice", len(cap.sent)-sent)
	}
	if q, ok := cap.sent[sent].Msg.(*core.MateQuery); !ok || q.Slice != 2 {
		t.Errorf("refresh sent %#v", cap.sent[sent].Msg)
	}
}

// Proof beats hearsay: in a full slice a node that answered takes a
// random slot, a node a reply merely names does not.
func TestDirectoryFullSliceTakesProvenMembersOnly(t *testing.T) {
	_, dir, _, _ := newDirectoryCore(t, Config{})
	key := keyInSlice(t, 2, dirSlices)
	for id := transport.NodeID(40); id < 40+maxSliceMembers; id++ {
		dir.learn(key, id)
	}
	dir.asked[2] = 0
	dir.addMates(&core.MateReply{Slice: 2, Mates: []pss.Descriptor{{ID: 90, Slice: 2}}})
	if slices.Contains(dir.members[2], 90) {
		t.Fatal("a full slice took a member from a reply")
	}
	dir.learn(key, 91)
	if m := dir.members[2]; len(m) != maxSliceMembers || !slices.Contains(m, 91) {
		t.Fatalf("members = %v, want the bound with the proven node among them", m)
	}
}

// localNode is the node the client of the tests below lives in. It is
// not on the random contact list, so a request that reaches it got there
// through the directory.
const localNode transport.NodeID = 40

// tickContact draws n contacts for key within one tick, fails the test
// unless they are all the same node, and returns it.
func tickContact(t *testing.T, dir *Directory, key string, n int) transport.NodeID {
	t.Helper()
	first, ok := dir.Contact(key)
	if !ok {
		t.Fatal("no contact")
	}
	for i := 1; i < n; i++ {
		if id, _ := dir.Contact(key); id != first {
			t.Fatalf("contact %d of one tick = %v, want the tick's first, %v", i, id, first)
		}
	}
	return first
}

// sortedIDs returns a sorted copy of ids.
func sortedIDs(ids []transport.NodeID) []transport.NodeID {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

// pinsOf runs ticks ticks of perTick contacts each for key and counts
// per node the ticks it took.
func pinsOf(t *testing.T, dir *Directory, key string, ticks, perTick int) map[transport.NodeID]int {
	t.Helper()
	counts := map[transport.NodeID]int{}
	for i := 0; i < ticks; i++ {
		counts[tickContact(t, dir, key, perTick)]++
		dir.endTick()
	}
	return counts
}

// The local node takes every contact of a slice once it is a known
// member of it — not before, and never those of a slice it is not in,
// whose contacts stay pinned per tick.
func TestDirectoryPrefersLocalMember(t *testing.T) {
	_, dir, _, _ := newDirectoryCore(t, Config{})
	dir.SetLocal(localNode)
	own, other := keyInSlice(t, 2, dirSlices), keyInSlice(t, 0, dirSlices)

	dir.learn(own, 41)
	dir.learn(own, 42)
	if c := pinsOf(t, dir, own, 50, 4); c[localNode] != 0 || c[41] == 0 || c[42] == 0 {
		t.Fatalf("pins before the local node is a member = %v, want 41 and 42 only", c)
	}
	if st := dir.stats; st.Local != 0 || st.Hits != 200 {
		t.Fatalf("stats = %+v, want 200 hits, none local", st)
	}

	// Mid-tick, with a pin already drawn: the local node wins at once.
	tickContact(t, dir, own, 1)
	dir.learn(own, localNode)
	if c := pinsOf(t, dir, own, 50, 4); c[localNode] != 50 {
		t.Fatalf("contacts with the local node a member = %v, want every tick on it", c)
	}
	if st := dir.stats; st.Local != 200 || st.Hits != 401 || st.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want 401 hits, 200 of them local", st)
	}

	dir.learn(other, 43)
	dir.learn(other, 44)
	if c := pinsOf(t, dir, other, 50, 4); c[localNode] != 0 || c[43] == 0 || c[44] == 0 {
		t.Fatalf("pins of a slice the local node is not in = %v, want 43 and 44 only", c)
	}
	if st := dir.stats; st.Local != 200 {
		t.Errorf("local hits = %d after another slice's contacts, want 200 still", st.Local)
	}
}

// The local node stops being a member by the rules every member obeys —
// another node acknowledging its request, a timeout — after which the
// slice's pins are drawn uniformly, tick by tick, from who is left,
// until the node proves itself again.
func TestDirectoryEvictsLocalLikeAnyMember(t *testing.T) {
	key := keyInSlice(t, 3, dirSlices)
	setup := func(t *testing.T) (*Core, *Directory, *capture) {
		cl, dir, cap, _ := newDirectoryCore(t, Config{TimeoutTicks: 1, Retries: 1})
		dir.SetLocal(localNode)
		for _, member := range []transport.NodeID{localNode, 41, 42} {
			dir.learn(key, member)
		}
		return cl, dir, cap
	}
	// evicted checks the state both subtests must leave: the local node
	// gone, its mates sharing the pins, and a reply from it bringing the
	// preference back within the tick.
	evicted := func(t *testing.T, cl *Core, dir *Directory, cap *capture) {
		t.Helper()
		if st := dir.stats; st.Evictions != 1 || slices.Contains(dir.members[3], localNode) {
			t.Fatalf("local node still listed: %+v, members %v", st, dir.members[3])
		}
		local := dir.stats.Local
		if c := pinsOf(t, dir, key, 200, 3); c[localNode] != 0 || c[41] < 60 || c[42] < 60 {
			t.Fatalf("pins after the eviction = %v, want 41 and 42 about evenly", c)
		}
		if dir.stats.Local != local {
			t.Errorf("local hits grew to %d while the local node was no member", dir.stats.Local)
		}
		cl.StartGetOpts(key, store.Latest, Opts{}, nil)
		get := cap.sent[len(cap.sent)-1]
		if get.To == localNode {
			t.Fatalf("get went to the evicted local node")
		}
		cl.HandleMessage(transport.Envelope{From: localNode, Msg: &core.GetReply{ID: get.Msg.(*core.GetRequest).ID, Slice: 3}})
		if id := tickContact(t, dir, key, 10); id != localNode {
			t.Errorf("contact after the local node answered again = %v, want it", id)
		}
	}

	t.Run("ack from another node", func(t *testing.T) {
		cl, dir, cap := setup(t)
		cl.StartPutOpts(key, 1, nil, Opts{}, nil)
		put := cap.sent[len(cap.sent)-1]
		if put.To != localNode {
			t.Fatalf("put went to %v, want the local node", put.To)
		}
		cl.HandleMessage(transport.Envelope{From: 41, Msg: &core.PutAck{ID: put.Msg.(*core.PutRequest).ID}})
		evicted(t, cl, dir, cap)
	})

	t.Run("timeout", func(t *testing.T) {
		cl, dir, cap := setup(t)
		cl.StartGetOpts(key, store.Latest, Opts{}, nil)
		if to := cap.sent[len(cap.sent)-1].To; to != localNode {
			t.Fatalf("get went to %v, want the local node", to)
		}
		cl.Tick()
		if retry := cap.sent[len(cap.sent)-1]; !isRandomContact(retry.To) || !floodOf(retry.Msg) {
			// The mate query the eviction prompts goes out before the retry.
			t.Fatalf("retry went to %v (flood %v), want a random contact with the flood", retry.To, floodOf(retry.Msg))
		}
		evicted(t, cl, dir, cap)
	})
}

// Members that prove themselves into a full slice take random slots,
// never the local node's.
func TestDirectoryFullSliceKeepsLocal(t *testing.T) {
	_, dir, _, _ := newDirectoryCore(t, Config{})
	dir.SetLocal(localNode)
	key := keyInSlice(t, 2, dirSlices)
	for id := localNode; id < localNode+maxSliceMembers; id++ {
		dir.learn(key, id)
	}
	// 200 draws over 16 slots: each slot is drawn many times over.
	for id := transport.NodeID(100); id < 300; id++ {
		dir.learn(key, id)
		if m := dir.members[2]; len(m) != maxSliceMembers || !slices.Contains(m, id) || !slices.Contains(m, localNode) {
			t.Fatalf("members after %v proved itself = %v, want the bound, the prover and the local node", id, m)
		}
	}
	if id, _ := dir.Contact(key); id != localNode {
		t.Errorf("contact = %v, want the local node", id)
	}
}

// A directory with no local node — every client but Node.NewClient's —
// draws what it drew before the local node existed: the slot sequence
// of a fixed seed, recorded at 1061266. Its contacts are that seed's
// deal, one turn per tick: the first 16 ticks pin each member once.
func TestDirectoryWithoutLocalDrawsAsBefore(t *testing.T) {
	_, dir, _, _ := newDirectoryCore(t, Config{})
	key := keyInSlice(t, 2, dirSlices)
	for id := transport.NodeID(40); id < 40+maxSliceMembers; id++ {
		dir.learn(key, id)
	}
	for id := transport.NodeID(90); id < 96; id++ {
		dir.learn(key, id) // full slice: each takes a drawn slot
	}
	wantMembers := []transport.NodeID{40, 41, 94, 90, 93, 45, 46, 47, 95, 49, 50, 51, 52, 92, 91, 55}
	if !slices.Equal(dir.members[2], wantMembers) {
		t.Errorf("members = %v, want %v", dir.members[2], wantMembers)
	}
	var got []transport.NodeID
	for i := 0; i < 24; i++ {
		got = append(got, tickContact(t, dir, key, 5))
		dir.endTick()
	}
	for i := 0; i < 8; i++ {
		id, _ := dir.Contact(keyInSlice(t, 0, dirSlices)) // unknown slice: the random list
		got = append(got, id)
	}
	if !slices.Equal(sortedIDs(got[:maxSliceMembers]), sortedIDs(wantMembers)) {
		t.Errorf("first round of pins = %v, want each member once", got[:maxSliceMembers])
	}
	wantContacts := []transport.NodeID{
		45, 52, 46, 95, 47, 40, 91, 49, 50, 93, 41, 92, 90, 55, 51, 94, 50, 46, 41, 93, 90, 51, 55, 95,
		2, 3, 1, 3, 2, 2, 2, 1,
	}
	if !slices.Equal(got, wantContacts) {
		t.Errorf("contacts = %v, want %v", got, wantContacts)
	}
	if st := dir.stats; st.Local != 0 {
		t.Errorf("local hits = %d without a local node", st.Local)
	}
}

// A retry draws its random contact anew, skipping the node the attempt
// before it went to while the list names another: a read whose pinned
// member died (here node 1, which the random list names too, as a
// cluster's seed list names its members) does not go back to it, nor does
// a second retry go back to the first retry's contact. A list of that
// node alone still yields it, and a draw that misses it costs the random
// stream what a plain draw does.
func TestRetrySkipsTheContactThatTimedOut(t *testing.T) {
	cl, dir, cap, _ := newDirectoryCore(t, Config{TimeoutTicks: 1, Retries: 3})
	key := keyInSlice(t, 2, dirSlices)
	for op := 0; op < 20; op++ {
		dir.learn(key, 1)
		sent := len(cap.sent)
		var result *Result
		cl.StartGetOpts(key, store.Latest, Opts{}, func(r Result) { result = &r })
		for result == nil {
			cl.Tick()
		}
		var contacts []transport.NodeID
		for _, env := range cap.sent[sent:] {
			if _, ok := env.Msg.(*core.GetRequest); ok {
				contacts = append(contacts, env.To)
			}
		}
		if len(contacts) != 4 || contacts[0] != 1 {
			t.Fatalf("op %d: attempts went to %v, want 4, the first to the pinned member 1", op, contacts)
		}
		for i := 1; i < len(contacts); i++ {
			if contacts[i] == contacts[i-1] {
				t.Fatalf("op %d: attempts went to %v: retry %d went back to the contact that timed out", op, contacts, i)
			}
		}
	}

	alone := NewRandomLB([]transport.NodeID{1}, sim.RNG(1, 5))
	if n, ok := alone.contactOther(1); !ok || n != 1 {
		t.Errorf("a list of the failed node alone drew %v, %v; want it", n, ok)
	}
	ids := []transport.NodeID{1, 2, 3}
	plain, skipping := NewRandomLB(ids, sim.RNG(1, 5)), NewRandomLB(ids, sim.RNG(1, 5))
	for i := 0; i < 100; i++ {
		want, _ := plain.Contact("")
		if got, _ := skipping.contactOther(4); got != want {
			t.Fatalf("draw %d skipping a node not in the list = %v, a plain draw %v", i, got, want)
		}
	}
}
