package dataflasks_test

import (
	"context"
	"testing"
	"time"

	"dataflasks/internal/core"
	"dataflasks/internal/pss"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
	"dataflasks/internal/wire"
)

// addrBook records what a node's fabric was taught.
type addrBook map[transport.NodeID]string

func (b addrBook) Learn(id transport.NodeID, addr string) { b[id] = addr }

// TestIntraCopiesDropOriginAddr: the intra-slice copy of a put or delete
// goes to mates that never acknowledge it, so it does not carry the
// client's address — the frame is shorter by exactly that string — while
// the entry point still acks the client it learned from the request, and
// a relayed get keeps the address: the mate that holds the object
// answers a client it never saw.
func TestIntraCopiesDropOriginAddr(t *testing.T) {
	const (
		client     = transport.NodeID(0xC0000001)
		clientAddr = "127.0.0.1:40123"
	)
	type sent struct {
		to  transport.NodeID
		msg interface{}
	}
	ctx := context.Background()
	newNode := func(id, mate transport.NodeID) (*core.Node, addrBook, *[]sent) {
		book, out := addrBook{}, &[]sent{}
		n := core.NewNode(id, core.Config{
			Slices: 1, Slicer: core.SlicerStatic, AntiEntropyEvery: -1, Seed: 7,
			RoundPeriod: time.Hour, AddressBook: book,
		}, store.NewMemory(), transport.SenderFunc(
			func(_ context.Context, to transport.NodeID, msg interface{}) error {
				*out = append(*out, sent{to, msg})
				return nil
			}))
		n.HandleMessage(ctx, transport.Envelope{From: mate, To: id,
			Msg: &core.MateReply{Slice: 0, Mates: []pss.Descriptor{{ID: mate, Slice: 0}}}})
		return n, book, out
	}
	entry, entryBook, entrySent := newNode(1, 2)
	mate, mateBook, mateSent := newNode(2, 1)
	if err := mate.Store().Put("held-by-mate", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}

	frameLen := func(msg interface{}) int {
		t.Helper()
		frame, err := wire.BinaryCodec().Encode(nil, &wire.Envelope{From: 1, To: 2, Msg: msg})
		if err != nil {
			t.Fatal(err)
		}
		return len(frame)
	}
	requests := []struct {
		name     string
		req      interface{}
		withAddr func(copy interface{}) interface{} // the copy as it used to travel
	}{
		{"put", &core.PutRequest{Routing: core.Routing{ID: 1, Origin: client, OriginAddr: clientAddr}, Key: "k", Version: 1, Value: []byte("v")},
			func(c interface{}) interface{} { m := *c.(*core.PutRequest); m.OriginAddr = clientAddr; return &m }},
		{"put batch", &core.PutBatchRequest{
			Routing: core.Routing{ID: 2, Origin: client, OriginAddr: clientAddr},
			Objs:    []store.Object{{Key: "a", Version: 1}, {Key: "b", Version: 1}},
		},
			func(c interface{}) interface{} { m := *c.(*core.PutBatchRequest); m.OriginAddr = clientAddr; return &m }},
		// Every delete is a batch; this one of one item is a single delete.
		{"delete batch", &core.DeleteBatchRequest{
			Routing: core.Routing{ID: 4, Origin: client, OriginAddr: clientAddr},
			Items:   []core.DeleteItem{{Key: "a", Version: 1}},
		},
			func(c interface{}) interface{} {
				m := *c.(*core.DeleteBatchRequest)
				m.OriginAddr = clientAddr
				return &m
			}},
	}
	for _, tc := range requests {
		*entrySent = nil
		delete(entryBook, client)
		entry.HandleMessage(ctx, transport.Envelope{From: client, To: 1, Msg: tc.req})
		var acked, copied bool
		for _, s := range *entrySent {
			switch s.to {
			case client:
				acked = true
			case 2:
				copied = true
				var intra bool
				var addr string
				switch m := s.msg.(type) {
				case *core.PutRequest:
					intra, addr = m.Intra, m.OriginAddr
				case *core.PutBatchRequest:
					intra, addr = m.Intra, m.OriginAddr
				case *core.DeleteBatchRequest:
					intra, addr = m.Intra, m.OriginAddr
				}
				if !intra || addr != "" {
					t.Errorf("%s: copy to the mate has Intra=%v OriginAddr=%q, want an intra copy with no address", tc.name, intra, addr)
				}
				if saved := frameLen(tc.withAddr(s.msg)) - frameLen(s.msg); saved != len(clientAddr) {
					t.Errorf("%s: intra copy frame is %d B shorter without the address, want %d", tc.name, saved, len(clientAddr))
				}
			}
		}
		if !acked || !copied || entryBook[client] != clientAddr {
			t.Errorf("%s: acked=%v copied=%v, fabric taught %q: the entry point must ack the client at the address the request carried",
				tc.name, acked, copied, entryBook[client])
		}
	}

	// A get the entry point cannot serve is relayed with the address, and
	// the mate answers the client straight from it.
	*entrySent = nil
	entry.HandleMessage(ctx, transport.Envelope{From: client, To: 1,
		Msg: &core.GetRequest{Routing: core.Routing{ID: 5, Origin: client, OriginAddr: clientAddr}, Key: "held-by-mate", Version: store.Latest}})
	if len(*entrySent) != 1 || (*entrySent)[0].to != 2 {
		t.Fatalf("entry point sent %+v, want one relayed get to the mate", *entrySent)
	}
	relayed := (*entrySent)[0].msg.(*core.GetRequest)
	if !relayed.Intra || relayed.OriginAddr != clientAddr {
		t.Fatalf("relayed get has Intra=%v OriginAddr=%q, want the client's address kept", relayed.Intra, relayed.OriginAddr)
	}
	mate.HandleMessage(ctx, transport.Envelope{From: 1, To: 2, Msg: relayed})
	if mateBook[client] != clientAddr {
		t.Errorf("mate's fabric was taught %q for the client, want %q", mateBook[client], clientAddr)
	}
	if len(*mateSent) != 1 || (*mateSent)[0].to != client {
		t.Fatalf("mate sent %+v, want one reply to the client", *mateSent)
	}
	if reply, ok := (*mateSent)[0].msg.(*core.GetReply); !ok || string(reply.Value) != "v" {
		t.Errorf("mate answered %+v, want the held value", (*mateSent)[0].msg)
	}
}
