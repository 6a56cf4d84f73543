package traced

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"dataflasks/internal/store"
)

func TestSelfTime(t *testing.T) {
	parent := Span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []Span
		want     int64
	}{
		{"no children", nil, 100},
		{"two apart", []Span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping", []Span{{Start: 110, End: 150}, {Start: 140, End: 160}}, 50},
		{"nested", []Span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"sticking out", []Span{{Start: 50, End: 120}, {Start: 180, End: 300}}, 60},
		{"outside", []Span{{Start: 10, End: 20}, {Start: 250, End: 260}}, 100},
		{"unsorted", []Span{{Start: 150, End: 170}, {Start: 110, End: 120}}, 70},
		{"covering", []Span{{Start: 0, End: 500}}, 0},
	} {
		if got := SelfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// chain builds the spans of one put that enters at a node outside the
// key's slice: client -> node 1 -> node 2 (stores, acks) -> client.
func chain() ([]Span, OpTrace) {
	s := []Span{
		0:  {Kind: ClientOp, Parent: -1, Start: 0, End: 1000},
		1:  {Kind: ClientIssue, Parent: 0, Start: 0, End: 60},
		2:  {Kind: TransportSend, Parent: 1, Start: 10, End: 50},
		3:  {Kind: WireEncode, Parent: 2, Start: 15, End: 25},
		4:  {Kind: TransportFlight, Parent: 2, Node: 1, Start: 25, End: 100},
		5:  {Kind: WireDecode, Parent: 4, Node: 1, Start: 100, End: 110},
		6:  {Kind: MailboxWait, Parent: 5, Node: 1, Start: 112, End: 150},
		7:  {Kind: CoreHandle, Parent: 6, Node: 1, Start: 150, End: 300},
		8:  {Kind: TransportSend, Parent: 7, Node: 1, Start: 160, End: 180}, // to a peer off the path
		9:  {Kind: WireEncode, Parent: 8, Node: 1, Start: 162, End: 170},
		10: {Kind: TransportSend, Parent: 7, Node: 1, Start: 200, End: 260}, // the path's relay
		11: {Kind: WireEncode, Parent: 10, Node: 1, Start: 205, End: 215},
		12: {Kind: TransportFlight, Parent: 10, Node: 2, Start: 215, End: 240}, // receiver runs before Send returns
		13: {Kind: WireDecode, Parent: 12, Node: 2, Start: 240, End: 250},
		14: {Kind: MailboxWait, Parent: 13, Node: 2, Start: 250, End: 270},
		15: {Kind: CoreHandle, Parent: 14, Node: 2, Start: 270, End: 900},
		16: {Kind: StorePut, Parent: 15, Node: 2, Start: 280, End: 700},
		17: {Kind: TransportSend, Parent: 15, Node: 2, Start: 710, End: 760},
		18: {Kind: WireEncode, Parent: 17, Node: 2, Start: 715, End: 720},
		19: {Kind: TransportFlight, Parent: 17, Start: 720, End: 800},
		20: {Kind: WireDecode, Parent: 19, Start: 800, End: 805},
		21: {Kind: ClientComplete, Parent: 20, Start: 810, End: 990},
		22: {Kind: TransportSend, Parent: 15, Node: 2, Start: 770, End: 800}, // intra-slice copy after the ack
		23: {Kind: WireEncode, Parent: 22, Node: 2, Start: 772, End: 780},
	}
	for i := range s {
		if s[i].Kind != CoreTick {
			s[i].Req = 7
		}
	}
	return s, OpTrace{Put: true, Traced: true, Root: 0, Done: 21, E2E: 1000}
}

func TestBudgetRowsSumToLatency(t *testing.T) {
	spans, tr := chain()
	b := Analyze(&Result{Spans: spans, Ops: []OpTrace{tr, {Traced: false, E2E: 900}}})
	if b.Ops != 1 || b.Unlinked != 0 {
		t.Fatalf("ops %d unlinked %d, want 1 and 0", b.Ops, b.Unlinked)
	}
	want := map[string]float64{
		"client.issue":            10,     // op start to the first send
		"transport.send":          5 + 25, // before the encode, and the write after it
		"wire.encode":             10,
		"transport.flight":        50, // from Send's return to the decode
		"wire.decode":             10,
		"core.mailbox_wait":       38,
		"core.handle":             50 - 20, // up to the relay's send, less the other send
		"core.fanout_send":        20,
		"relay.transport.send":    5 + 25, // the write is cut short by the receiver's decode
		"relay.wire.encode":       10,
		"relay.transport.flight":  0,
		"relay.wire.decode":       10,
		"relay.core.mailbox_wait": 20,
		"relay.core.handle":       440 - 420, // up to the ack's send, less the store
		"store.put":               420,
		"ack.transport.send":      5 + 40,
		"ack.wire.encode":         5,
		"ack.transport.flight":    40,
		"ack.wire.decode":         5,
		"client.complete":         190,
	}
	sum := 0.0
	for _, r := range b.Rows {
		w, ok := want[r.Name]
		if !ok {
			t.Errorf("unexpected row %s = %v", r.Name, r.Us)
			continue
		}
		if math.Abs(r.Us*1e3-w) > 1e-6 {
			t.Errorf("row %s = %v ns, want %v", r.Name, r.Us*1e3, w)
		}
		delete(want, r.Name)
		sum += r.Us
	}
	for name := range want {
		t.Errorf("row %s missing", name)
	}
	// decode end -> enqueue, twice: 2 + 0, and decode end -> enqueue at the client: 5.
	if got := b.UnattributedUs * 1e3; math.Abs(got-7) > 1e-6 {
		t.Errorf("unattributed %v ns, want 7", got)
	}
	if math.Abs(sum+b.UnattributedUs-b.BandUs) > 1e-9 || b.BandUs != 1 {
		t.Errorf("rows %v + gap %v != latency %v", sum, b.UnattributedUs, b.BandUs)
	}
	if got := b.Layers["core.relay_hops"]; got != 1 {
		t.Errorf("relay hops %v, want 1", got)
	}
	// Handler self times: node 1, 150 less sends of 20 and 60; node 2,
	// 630 less the store's 420 and sends of 50 and 30. The lower median.
	if got := b.Layers["core.handle_us"] * 1e3; math.Abs(got-70) > 1e-6 {
		t.Errorf("core.handle_us %v ns, want 70", got)
	}
	if got := b.OverheadPct(); math.Abs(got-100.0/9) > 1e-9 {
		t.Errorf("overhead %v %%, want %v", got, 100.0/9)
	}
}

func TestBrokenChainIsUnlinked(t *testing.T) {
	spans, tr := chain()
	spans[13].Parent = -1 // the relay's frame was encoded untraced
	b := Analyze(&Result{Spans: spans, Ops: []OpTrace{tr}})
	if b.Ops != 0 || b.Unlinked != 1 {
		t.Errorf("ops %d unlinked %d, want 0 and 1", b.Ops, b.Unlinked)
	}
}

// TestReplaySmoke runs the real in-process cluster: 4 nodes on loopback
// TCP with fsyncing log stores. Slow, so not under -short.
func TestReplaySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a 4-node loopback cluster; skipped in -short")
	}
	var pre []store.Object
	var ops []Op
	for i := 0; i < 40; i++ {
		pre = append(pre, store.Object{Key: fmt.Sprintf("rec-%d", i), Version: 1, Value: []byte("preloaded")})
	}
	for i := 0; i < 200; i++ {
		if i%4 < 2 {
			ops = append(ops, Op{Put: true, Key: fmt.Sprintf("new-%d", i), Version: 1, Value: make([]byte, 256)})
		} else {
			ops = append(ops, Op{Key: fmt.Sprintf("rec-%d", i%40)})
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := Run(ctx, Config{
		Dir: t.TempDir(), Nodes: 4, Slices: 2, Period: 50 * time.Millisecond,
		SegmentBytes: 1 << 20, StableRounds: 5, Preload: pre, Ops: ops,
		OpTimeoutTicks: 4, OpRetries: 1, Seed: 1,
		Check: func(o Op, value []byte, version uint64) error {
			if string(value) != "preloaded" || version != 1 {
				return fmt.Errorf("get %s = %q v%d", o.Key, value, version)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > 0 || res.SpansDropped > 0 || res.LinkMismatches > 0 {
		t.Fatalf("failed %d (%v), spans dropped %d, frames unmatched %d", res.Failed, res.FirstErr, res.SpansDropped, res.LinkMismatches)
	}
	b := Analyze(res)
	if b.Ops != len(ops)/2 || b.Unlinked != 0 {
		t.Errorf("budget over %d ops, %d unlinked; want %d and 0", b.Ops, b.Unlinked, len(ops)/2)
	}
	if pct := b.UnattributedPct(); pct < 0 || pct > 15 {
		t.Errorf("%.1f %% of the traced median is unattributed", pct)
	}
	for _, name := range []string{"wire.encode_us", "transport.flight_us", "core.handle_us", "store.put_us", "store.get_us"} {
		if b.Layers[name] <= 0 {
			t.Errorf("%s = %v", name, b.Layers[name])
		}
	}
}
