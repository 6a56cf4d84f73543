package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dataflasks/internal/metrics"
)

// TestTCPHoldWritesEachPeerOnce: frames sent while the fabric holds
// reach each peer in send order, with one write per peer at Flush; the
// stream's first held frame announces the sender's address; each frame's
// bytes are counted once, where it is encoded; and a send made with
// nothing held is written at once.
func TestTCPHoldWritesEachPeerOnce(t *testing.T) {
	logB := &addrLogCodec{}
	colB, colC := newCollector(), newCollector()
	b, err := ListenTCP(2, "127.0.0.1:0", "", TCPConfig{Codec: logB}, colB.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := ListenTCP(3, "127.0.0.1:0", "", testTCP, colC.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var encoded metrics.SharedCounter
	a, err := ListenTCP(1, "127.0.0.1:0", "", TCPConfig{Codec: textCodec{}, EncodeBytes: &encoded}, func(Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Learn(2, b.Addr())
	a.Learn(3, c.Addr())

	ctx := context.Background()
	a.Hold()
	for i := 0; i < 5; i++ {
		for _, to := range []NodeID{2, 3} {
			if i >= 3 && to == 3 {
				continue
			}
			if err := a.Send(ctx, to, Envelope{From: 1, Msg: &tcpTestMsg{Text: fmt.Sprintf("%d-%d", to, i)}}); err != nil {
				t.Fatalf("held send: %v", err)
			}
		}
	}
	if st := a.Stats(); st.Writes != 0 || st.Delivered != 0 || st.Sent != 8 {
		t.Fatalf("before Flush: %+v, want 8 sent and nothing written", st)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if st := a.Stats(); st.Writes != 2 || st.Delivered != 8 || st.Dropped != 0 {
		t.Fatalf("after Flush: %+v, want 2 writes and 8 delivered", st)
	}
	var frameBytes uint64
	for _, want := range []struct {
		col  *collector
		to   NodeID
		sent int
	}{{colB, 2, 5}, {colC, 3, 3}} {
		envs := want.col.waitFor(t, want.sent, 5*time.Second)
		for i, env := range envs {
			if got, exp := env.Msg.(*tcpTestMsg).Text, fmt.Sprintf("%d-%d", want.to, i); got != exp {
				t.Fatalf("peer %d frame %d = %q, want %q", want.to, i, got, exp)
			}
			frameBytes += uint64(env.Bytes)
		}
	}
	if encoded.Load() != frameBytes {
		t.Fatalf("encode bytes = %d, the delivered frames hold %d", encoded.Load(), frameBytes)
	}
	for i, addr := range logB.seen() {
		want := ""
		if i == 0 {
			want = a.Addr()
		}
		if addr != want {
			t.Fatalf("held frame %d carried FromAddr %q, want %q", i, addr, want)
		}
	}

	// The hold ended with the Flush: the next send is written at once.
	if err := a.Send(ctx, 2, Envelope{From: 1, Msg: &tcpTestMsg{Text: "alone"}}); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Writes != 3 || st.Delivered != 9 {
		t.Fatalf("a send with nothing held: %+v, want it written at once", st)
	}
	colB.waitFor(t, 6, 5*time.Second)
}

// TestTCPFailedFlushDropsAndRedials: a held stream whose write fails has
// its frames counted dropped and is torn down, so the next send redials;
// a flush whose ctx is done fails the same way without writing.
func TestTCPFailedFlushDropsAndRedials(t *testing.T) {
	colB := newCollector()
	b, err := ListenTCP(2, "127.0.0.1:0", "", testTCP, colB.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenTCP(1, "127.0.0.1:0", "", testTCP, func(Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Learn(2, b.Addr())

	ctx := context.Background()
	a.Hold()
	for i := 0; i < 3; i++ {
		if err := a.Send(ctx, 2, Envelope{From: 1, Msg: &tcpTestMsg{Text: "lost"}}); err != nil {
			t.Fatalf("held send: %v", err)
		}
	}
	a.mu.RLock()
	stream := a.conns[2]
	a.mu.RUnlock()
	stream.conn.Close() // the stream dies before the turn ends
	if err := a.Flush(ctx); !errors.Is(err, ErrDropped) {
		t.Fatalf("Flush over a dead stream: err = %v, want ErrDropped", err)
	}
	if st := a.Stats(); st.Dropped != 3 || st.Delivered != 0 {
		t.Fatalf("after the failed flush: %+v, want 3 dropped", st)
	}
	a.mu.RLock()
	_, kept := a.conns[2]
	a.mu.RUnlock()
	if kept {
		t.Fatal("the failed stream is still cached")
	}
	if err := a.Send(ctx, 2, Envelope{From: 1, Msg: &tcpTestMsg{Text: "redialed"}}); err != nil {
		t.Fatalf("send after the failed flush: %v", err)
	}
	if envs := colB.waitFor(t, 1, 5*time.Second); envs[0].Msg.(*tcpTestMsg).Text != "redialed" {
		t.Fatalf("b received %q", envs[0].Msg.(*tcpTestMsg).Text)
	}

	a.Hold()
	for i := 0; i < 2; i++ {
		if err := a.Send(ctx, 2, Envelope{From: 1, Msg: &tcpTestMsg{Text: "canceled"}}); err != nil {
			t.Fatalf("held send: %v", err)
		}
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	writes := a.Stats().Writes
	if err := a.Flush(canceled); !errors.Is(err, ErrDropped) {
		t.Fatalf("Flush with a done ctx: err = %v, want ErrDropped", err)
	}
	if st := a.Stats(); st.Dropped != 5 || st.Writes != writes {
		t.Fatalf("after a flush with a done ctx: %+v, want 5 dropped and no new write", st)
	}
	if err := a.Send(ctx, 2, Envelope{From: 1, Msg: &tcpTestMsg{Text: "after"}}); err != nil {
		t.Fatalf("send after the canceled flush: %v", err)
	}
	if envs := colB.waitFor(t, 2, 5*time.Second); envs[1].Msg.(*tcpTestMsg).Text != "after" {
		t.Fatalf("b received %q after the canceled flush", envs[1].Msg.(*tcpTestMsg).Text)
	}
}

// TestTCPBuffersOverBoundReleased: a stream's write scratch and a read
// loop's frame buffer that grew past bufKeep for one frame (or one held
// turn) are dropped once it is through, and a small one is kept.
func TestTCPBuffersOverBoundReleased(t *testing.T) {
	b, err := ListenTCP(2, "127.0.0.1:0", "", testTCP, func(Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenTCP(1, "127.0.0.1:0", "", testTCP, func(Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Learn(2, b.Addr())

	ctx := context.Background()
	scratch := func() int {
		a.mu.RLock()
		c := a.conns[2]
		a.mu.RUnlock()
		c.mu.Lock()
		defer c.mu.Unlock()
		return cap(c.scratch)
	}
	big := &tcpTestMsg{Text: strings.Repeat("x", bufKeep+1)}
	small := &tcpTestMsg{Text: "x"}
	if err := a.Send(ctx, 2, Envelope{From: 1, Msg: small}); err != nil {
		t.Fatal(err)
	}
	if n := scratch(); n == 0 || n > bufKeep {
		t.Fatalf("after a small frame the scratch holds %d bytes, want it kept", n)
	}
	if err := a.Send(ctx, 2, Envelope{From: 1, Msg: big}); err != nil {
		t.Fatal(err)
	}
	if n := scratch(); n != 0 {
		t.Fatalf("after a frame over the bound the scratch holds %d bytes, want 0", n)
	}
	a.Hold()
	for i := 0; i < 3; i++ {
		if err := a.Send(ctx, 2, Envelope{From: 1, Msg: &tcpTestMsg{Text: strings.Repeat("y", bufKeep/2)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if n := scratch(); n != 0 {
		t.Fatalf("after a held turn over the bound the scratch holds %d bytes, want 0", n)
	}

	var stream []byte
	for _, m := range []*tcpTestMsg{small, big, small} {
		frame, _ := textCodec{}.Encode(nil, &WireEnvelope{From: 1, To: 2, Msg: m})
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(frame)))
		stream = append(stream, frame...)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	buf, ok := b.readFrame(br, nil)
	if !ok || cap(buf) == 0 {
		t.Fatalf("after a small frame: ok %v, buffer cap %d; want it kept", ok, cap(buf))
	}
	if buf, ok = b.readFrame(br, buf); !ok || buf != nil {
		t.Fatalf("after a frame over the bound: ok %v, buffer cap %d; want it dropped", ok, cap(buf))
	}
	if buf, ok = b.readFrame(br, buf); !ok || cap(buf) == 0 || cap(buf) > bufKeep {
		t.Fatalf("after a small frame again: ok %v, buffer cap %d", ok, cap(buf))
	}
}
