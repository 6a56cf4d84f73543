package dataflasks_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dataflasks"
	"dataflasks/internal/core"
	"dataflasks/internal/transport"
	"dataflasks/internal/wire"
)

// ackingPeer is a stand-in node on a TCP fabric of its own: it records
// the puts that reach it, in arrival order, and acknowledges each one.
type ackingPeer struct {
	net  atomic.Pointer[transport.TCPNetwork]
	mu   sync.Mutex
	keys []string
}

func startAckingPeer(t *testing.T) *ackingPeer {
	t.Helper()
	p := &ackingPeer{}
	fabric, err := transport.ListenTCP(1, "127.0.0.1:0", "", transport.TCPConfig{Codec: wire.BinaryCodec()}, p.deliver)
	if err != nil {
		t.Fatal(err)
	}
	p.net.Store(fabric)
	t.Cleanup(func() { _ = fabric.Close() })
	return p
}

func (p *ackingPeer) deliver(env transport.Envelope) {
	put, ok := env.Msg.(*core.PutRequest)
	if !ok {
		return
	}
	p.mu.Lock()
	p.keys = append(p.keys, put.Key)
	p.mu.Unlock()
	ack := &core.PutAck{ID: put.ID, Version: put.Version}
	_ = p.net.Load().Sender().Send(context.Background(), put.Origin, ack)
}

func (p *ackingPeer) received() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.keys...)
}

// TestClientTurnWritesBurstOnce: puts issued from one goroutine while the
// client's loop is busy go out in its next turn, in issue order, in fewer
// socket writes than puts; a blocking put afterwards still completes.
func TestClientTurnWritesBurstOnce(t *testing.T) {
	peer := startAckingPeer(t)
	cl, err := dataflasks.ConnectClient("127.0.0.1:0", []string{"1@" + peer.net.Load().Addr()}, dataflasks.Config{Slices: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const burst = 32
	release := dataflasks.ParkLoop(cl)
	ops := make([]*dataflasks.Op, burst)
	want := make([]string, burst)
	for i := range ops {
		want[i] = fmt.Sprintf("k%02d", i)
		ops[i] = cl.PutAsync(want[i], 1, []byte("v"))
	}
	release()
	for i, op := range ops {
		if err := op.Wait(ctx); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// The client may also have asked the peer for slice members once the
	// acks named it; that query is not part of the burst.
	if st := dataflasks.FabricStats(cl); st.Writes >= burst || st.Delivered < burst {
		t.Fatalf("a burst of %d puts: %d frames in %d writes, want fewer writes than puts", burst, st.Delivered, st.Writes)
	}
	if got := peer.received(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the peer received %v, want the issue order %v", got, want)
	}

	if err := cl.Put(ctx, "blocking", 1, []byte("v")); err != nil {
		t.Fatalf("blocking put: %v", err)
	}
	if got := peer.received(); len(got) != burst+1 || got[burst] != "blocking" {
		t.Fatalf("after the blocking put the peer received %v", got)
	}
}
