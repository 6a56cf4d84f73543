package traced

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Row is one step on the path the caller waits for.
type Row struct {
	Name string
	Us   float64
}

// Budget is the analysis of one traced replay.
type Budget struct {
	// Ops is how many replayed ops had a complete span chain; Unlinked
	// how many did not (a retry, or a reply whose frame went unmatched).
	Ops, Unlinked int
	// P50Us and P99Us are the traced end-to-end latency; P99Us is 0
	// with fewer than ten samples beyond it.
	P50Us, P99Us float64
	// BandOps ops have their latency between the 45th and the 55th
	// percentile; Rows are the means of their steps, in path order, and
	// with UnattributedUs sum to BandUs, their mean latency.
	BandOps        int
	BandUs         float64
	Rows           []Row
	UnattributedUs float64
	// Layers holds the per-layer time metrics: medians over every
	// data-plane span of the kind, on or off the waited-for path.
	Layers map[string]float64
	// TracedP50Us and PlainP50Us are the caller-side medians of the ops
	// replayed with the decorators on and off.
	TracedP50Us, PlainP50Us float64
}

// OverheadPct is how much the decorators add to the median op.
func (b *Budget) OverheadPct() float64 {
	if b.PlainP50Us == 0 {
		return 0
	}
	return 100 * (b.TracedP50Us - b.PlainP50Us) / b.PlainP50Us
}

// UnattributedPct is the share of the median requests' latency that no
// row explains.
func (b *Budget) UnattributedPct() float64 {
	if b.BandUs == 0 {
		return 0
	}
	return 100 * b.UnattributedUs / b.BandUs
}

// rowOrder lists every row in path order. A request's first message
// carries no prefix, messages between nodes "relay." and the reply to
// the client "ack."; a prefix covers the message and its handling at
// the node it reaches.
var rowOrder = func() []string {
	hop := []string{"transport.send", "wire.encode", "transport.flight", "wire.decode"}
	at := []string{"core.mailbox_wait", "core.handle", "core.fanout_send"}
	rows := []string{"client.issue"}
	for _, prefix := range []string{"", "relay."} {
		for _, r := range append(append([]string{}, hop...), at...) {
			rows = append(rows, prefix+r)
		}
	}
	rows = append(rows, "store.put", "store.get")
	for _, r := range hop {
		rows = append(rows, "ack."+r)
	}
	return append(rows, "client.complete")
}()

// hop is one message on an op's path with its handling at the receiver.
type hop struct {
	send, enc, flight, dec int32
	wait, handle           int32 // -1 when the receiver is the client
}

// Analyze turns a traced replay into its budget.
func Analyze(res *Result) *Budget {
	spans := res.Spans
	children := map[int32][]int32{}
	for i, s := range spans {
		switch s.Kind {
		case WireEncode, TransportSend, StorePut, StoreGet, StorePutBatch:
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], int32(i))
			}
		}
	}

	b := &Budget{Layers: map[string]float64{}}
	type opRows struct {
		e2e  int64
		rows map[string]int64
		hops int
	}
	var ops []opRows
	var tracedUs, plainUs []float64
	for _, tr := range res.Ops {
		if !tr.Traced {
			plainUs = append(plainUs, float64(tr.E2E)/1e3)
			continue
		}
		tracedUs = append(tracedUs, float64(tr.E2E)/1e3)
		hops, ok := pathOf(spans, children, tr)
		if !ok {
			b.Unlinked++
			continue
		}
		ops = append(ops, opRows{e2e: spans[tr.Root].Dur(), rows: rowsOf(spans, children, tr, hops), hops: len(hops)})
	}
	b.Ops = len(ops)
	b.TracedP50Us, b.PlainP50Us = medianOf(tracedUs), medianOf(plainUs)
	if len(ops) == 0 {
		return b
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].e2e < ops[j].e2e })
	e2e := make([]float64, len(ops))
	for i, o := range ops {
		e2e[i] = float64(o.e2e) / 1e3
	}
	b.P50Us = e2e[(len(e2e)-1)/2]
	if rank := (len(e2e)*99 + 99) / 100; len(e2e)-rank >= 10 {
		b.P99Us = e2e[rank-1]
	}

	band := ops[len(ops)*45/100 : len(ops)*55/100+1]
	b.BandOps = len(band)
	sum := map[string]int64{}
	var total int64
	for _, o := range band {
		total += o.e2e
		for name, ns := range o.rows {
			sum[name] += ns
		}
	}
	n := float64(len(band)) * 1e3
	b.BandUs = float64(total) / n
	b.UnattributedUs = b.BandUs
	for _, name := range rowOrder {
		if ns, ok := sum[name]; ok {
			b.Rows = append(b.Rows, Row{name, float64(ns) / n})
			b.UnattributedUs -= float64(ns) / n
		}
	}

	// Per-layer medians over all data-plane spans.
	byKind := map[Kind][]float64{}
	var sendSelf, handleSelf, perObj []float64
	kids := func(i int) []Span {
		out := make([]Span, 0, len(children[int32(i)]))
		for _, c := range children[int32(i)] {
			out = append(out, spans[c])
		}
		return out
	}
	for i, s := range spans {
		us := float64(s.Dur()) / 1e3
		switch s.Kind {
		case StorePut, StoreGet:
			byKind[s.Kind] = append(byKind[s.Kind], us)
		case StorePutBatch:
			if s.N > 0 {
				perObj = append(perObj, us/float64(s.N))
			}
		}
		if s.Req == 0 {
			continue
		}
		switch s.Kind {
		case WireEncode, WireDecode, TransportFlight, MailboxWait:
			byKind[s.Kind] = append(byKind[s.Kind], us)
		case TransportSend:
			sendSelf = append(sendSelf, float64(SelfTime(s, kids(i)))/1e3)
		case CoreHandle:
			handleSelf = append(handleSelf, float64(SelfTime(s, kids(i)))/1e3)
		}
	}
	var clientSelf []float64
	hopCount := 0
	for _, o := range ops {
		clientSelf = append(clientSelf, float64(o.rows["client.issue"]+o.rows["client.complete"])/1e3)
		hopCount += o.hops - 2
	}
	b.Layers["client.self_us"] = medianOf(clientSelf)
	b.Layers["wire.encode_us"] = medianOf(byKind[WireEncode])
	b.Layers["wire.decode_us"] = medianOf(byKind[WireDecode])
	b.Layers["transport.send_us"] = medianOf(sendSelf)
	b.Layers["transport.flight_us"] = medianOf(byKind[TransportFlight])
	b.Layers["core.mailbox_wait_us"] = medianOf(byKind[MailboxWait])
	b.Layers["core.handle_us"] = medianOf(handleSelf)
	b.Layers["core.relay_hops"] = float64(hopCount) / float64(len(ops))
	b.Layers["store.put_us"] = medianOf(byKind[StorePut])
	b.Layers["store.get_us"] = medianOf(byKind[StoreGet])
	b.Layers["store.putbatch_us_per_obj"] = medianOf(perObj)
	return b
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	return v[(len(v)-1)/2]
}

// pathOf follows parents from the reply that completed the op back to
// its issue: complete <- decode <- flight <- send <- handle <- wait <-
// decode ... <- send <- issue. It returns the messages in send order.
func pathOf(spans []Span, children map[int32][]int32, tr OpTrace) ([]hop, bool) {
	if tr.Root < 0 || tr.Done < 0 {
		return nil, false
	}
	kindAt := func(i int32, k Kind) bool { return i >= 0 && spans[i].Kind == k }
	var rev []hop
	wait, handle := int32(-1), int32(-1)
	dec := spans[tr.Done].Parent
	for len(rev) < 16 {
		if !kindAt(dec, WireDecode) {
			return nil, false
		}
		flight := spans[dec].Parent
		if !kindAt(flight, TransportFlight) {
			return nil, false
		}
		send := spans[flight].Parent
		if !kindAt(send, TransportSend) {
			return nil, false
		}
		enc := int32(-1)
		for _, c := range children[send] {
			if spans[c].Kind == WireEncode {
				enc = c
			}
		}
		if enc < 0 {
			return nil, false
		}
		rev = append(rev, hop{send: send, enc: enc, flight: flight, dec: dec, wait: wait, handle: handle})
		from := spans[send].Parent
		if kindAt(from, ClientIssue) {
			if spans[from].Parent != tr.Root {
				return nil, false // the reply answers an earlier op
			}
			hops := make([]hop, len(rev))
			for i, h := range rev {
				hops[len(rev)-1-i] = h
			}
			return hops, true
		}
		if !kindAt(from, CoreHandle) {
			return nil, false
		}
		handle = from
		wait = spans[handle].Parent
		if !kindAt(wait, MailboxWait) {
			return nil, false
		}
		dec = spans[wait].Parent
	}
	return nil, false
}

// rowsOf splits the op's timeline among the steps of its path. Each
// instant belongs to one row: a send owns the time before its encode
// and the socket write after it, flight is what remains until the
// receiver starts decoding, and a handler owns the time up to the send
// of the path's next message, less the store calls inside it.
func rowsOf(spans []Span, children map[int32][]int32, tr OpTrace, hops []hop) map[string]int64 {
	rows := map[string]int64{}
	root := spans[tr.Root]
	rows["client.issue"] = spans[hops[0].send].Start - root.Start
	for j, h := range hops {
		prefix := "relay."
		switch j {
		case 0:
			prefix = ""
		case len(hops) - 1:
			prefix = "ack."
		}
		s, e, d := spans[h.send], spans[h.enc], spans[h.dec]
		written := min(s.End, d.Start) // the receiver may run before Send returns
		rows[prefix+"transport.send"] += e.Start - s.Start + max(0, written-e.End)
		rows[prefix+"wire.encode"] += e.Dur()
		rows[prefix+"transport.flight"] += max(0, d.Start-max(e.End, written))
		rows[prefix+"wire.decode"] += d.Dur()
		if h.handle < 0 {
			rows["client.complete"] = root.End - spans[tr.Done].Start
			continue
		}
		next := spans[hops[j+1].send]
		rows[prefix+"core.mailbox_wait"] += spans[h.wait].Dur()
		own := next.Start - spans[h.handle].Start
		for _, c := range children[h.handle] {
			cs := spans[c]
			if c == hops[j+1].send || cs.End > next.Start {
				continue
			}
			switch cs.Kind {
			case StorePut, StorePutBatch:
				rows["store.put"] += cs.Dur()
			case StoreGet:
				rows["store.get"] += cs.Dur()
			case TransportSend:
				// The same request sent to other peers first.
				rows[prefix+"core.fanout_send"] += cs.Dur()
			}
			own -= cs.Dur()
		}
		rows[prefix+"core.handle"] += own
	}
	return rows
}

// WriteTable prints the budget: one row per step, the gap, and the sum
// next to the traced median.
func (b *Budget) WriteTable(w io.Writer, workload string) {
	fmt.Fprintf(w, "budget %s: %d traced ops (%d unlinked), traced p50 %.1f us", workload, b.Ops, b.Unlinked, b.P50Us)
	if b.P99Us > 0 {
		fmt.Fprintf(w, ", p99 %.1f us", b.P99Us)
	}
	fmt.Fprintf(w, "\n  rows are means over the %d ops between the 45th and 55th percentile (mean %.1f us)\n", b.BandOps, b.BandUs)
	for _, r := range b.Rows {
		fmt.Fprintf(w, "  %-28s %9.1f us  %5.1f %%\n", r.Name, r.Us, 100*r.Us/b.BandUs)
	}
	fmt.Fprintf(w, "  %-28s %9.1f us  %5.1f %%\n", "unattributed_us", b.UnattributedUs, b.UnattributedPct())
	fmt.Fprintf(w, "  %-28s %9.1f us\n", "sum", b.BandUs)
	fmt.Fprintf(w, "  trace_overhead_pct %.2f %% (p50 of the ops replayed with the decorators on %.1f us, off %.1f us)\n",
		b.OverheadPct(), b.TracedP50Us, b.PlainP50Us)
}

// WriteSpans writes every span as one JSON object per array element:
// layer.name, node, start and end in nanoseconds, parent index and
// request id.
func WriteSpans(w io.Writer, spans []Span) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var sb strings.Builder
	bw.WriteString("[\n")
	for i, s := range spans {
		sb.Reset()
		fmt.Fprintf(&sb, `{"name":%q,"node":%d,"start_ns":%d,"end_ns":%d,"parent":%d,"req":%d,"n":%d}`,
			s.Kind.String(), s.Node, s.Start, s.End, s.Parent, s.Req, s.N)
		if i < len(spans)-1 {
			sb.WriteByte(',')
		}
		sb.WriteByte('\n')
		bw.WriteString(sb.String())
	}
	bw.WriteString("]\n")
	return bw.Flush() // reports any earlier write error too
}
