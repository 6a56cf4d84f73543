package wire

import (
	"errors"
	"fmt"
	"reflect"
	"slices"

	"dataflasks/internal/aggregate"
	"dataflasks/internal/antientropy"
	"dataflasks/internal/bootstrap"
	"dataflasks/internal/core"
	"dataflasks/internal/dht"
	"dataflasks/internal/gossip"
	"dataflasks/internal/pss"
	"dataflasks/internal/slicing"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// Spec declares one protocol message: its stable kind ID and binary
// encode/decode. Kind IDs are wire contract — never renumber or reuse
// one; retire by leaving a gap and append new messages with fresh IDs.
type Spec struct {
	// Kind is the stable on-the-wire message ID.
	Kind uint16
	// Name labels the message in logs and tooling.
	Name string
	// New returns a fresh zero message (pointer form, as messages travel
	// in envelopes); the type index is built from it.
	New func() interface{}

	enc func(b []byte, msg interface{}) []byte
	dec func(r *reader) interface{}
}

// Messages is the protocol surface: every message a node may emit or
// receive, declared once. The codec derives from this table.
var Messages = []Spec{
	// -- epidemic control plane --
	{Kind: 1, Name: "pss.ShuffleRequest",
		New: func() interface{} { return &pss.ShuffleRequest{} },
		enc: func(b []byte, m interface{}) []byte { return appendDescs(b, m.(*pss.ShuffleRequest).Sample) },
		dec: func(r *reader) interface{} { return &pss.ShuffleRequest{Sample: readDescs(r)} },
	},
	{Kind: 2, Name: "pss.ShuffleReply",
		New: func() interface{} { return &pss.ShuffleReply{} },
		enc: func(b []byte, m interface{}) []byte { return appendDescs(b, m.(*pss.ShuffleReply).Sample) },
		dec: func(r *reader) interface{} { return &pss.ShuffleReply{Sample: readDescs(r)} },
	},
	{Kind: 3, Name: "slicing.SwapRequest",
		New: func() interface{} { return &slicing.SwapRequest{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*slicing.SwapRequest)
			b = appendF64(b, v.Attr)
			b = appendF64(b, v.X)
			return appendU32(b, v.Seq)
		},
		dec: func(r *reader) interface{} {
			return &slicing.SwapRequest{Attr: r.f64(), X: r.f64(), Seq: r.u32()}
		},
	},
	{Kind: 4, Name: "slicing.SwapReply",
		New: func() interface{} { return &slicing.SwapReply{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*slicing.SwapReply)
			b = appendF64(b, v.Attr)
			b = appendF64(b, v.X)
			b = appendBool(b, v.Swapped)
			b = appendBool(b, v.Busy)
			return appendU32(b, v.Seq)
		},
		dec: func(r *reader) interface{} {
			return &slicing.SwapReply{Attr: r.f64(), X: r.f64(), Swapped: r.boolean(), Busy: r.boolean(), Seq: r.u32()}
		},
	},
	{Kind: 5, Name: "aggregate.ExtremaMsg",
		New: func() interface{} { return &aggregate.ExtremaMsg{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*aggregate.ExtremaMsg)
			b = appendLen(b, len(v.Seeds))
			for _, s := range v.Seeds {
				b = appendF64(b, s)
			}
			return b
		},
		dec: func(r *reader) interface{} {
			n := r.length()
			var seeds []float64
			if n > 0 && r.err == nil {
				seeds = make([]float64, 0, n)
				for i := 0; i < n && r.err == nil; i++ {
					seeds = append(seeds, r.f64())
				}
			}
			return &aggregate.ExtremaMsg{Seeds: seeds}
		},
	},
	{Kind: 11, Name: "antientropy.Pull",
		New: func() interface{} { return &antientropy.Pull{} },
		enc: func(b []byte, m interface{}) []byte { return appendHeaders(b, m.(*antientropy.Pull).Headers) },
		dec: func(r *reader) interface{} { return &antientropy.Pull{Headers: readHeaders(r)} },
	},

	// -- data plane: anti-entropy value transfer --
	{Kind: 12, Name: "antientropy.Push",
		New: func() interface{} { return &antientropy.Push{} },
		enc: func(b []byte, m interface{}) []byte { return appendObjects(b, m.(*antientropy.Push).Objects) },
		dec: func(r *reader) interface{} { return &antientropy.Push{Objects: readObjects(r)} },
	},

	// -- data plane: client-visible requests and acks --
	{Kind: 13, Name: "core.PutRequest",
		New: func() interface{} { return &core.PutRequest{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*core.PutRequest)
			b = appendU64(b, uint64(v.ID))
			b = appendStr(b, v.Key)
			b = appendU64(b, v.Version)
			b = appendBytes(b, v.Value)
			return appendRouting(b, &v.Routing, true)
		},
		dec: func(r *reader) interface{} {
			m := &core.PutRequest{
				Routing: core.Routing{ID: gossip.RequestID(r.u64())},
				Key:     r.str(), Version: r.u64(), Value: r.blob(),
			}
			readRouting(r, &m.Routing, true)
			return m
		},
	},
	// Kinds 14 and 18 keep the slot of the request's key, which answers
	// once echoed and no client read, as a reserved empty string: either
	// side of a mixed cluster decodes the other's answers.
	{Kind: 14, Name: "core.PutAck",
		New: func() interface{} { return &core.PutAck{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*core.PutAck)
			b = appendU64(b, uint64(v.ID))
			b = appendReserved(b)
			return appendU64(b, v.Version)
		},
		dec: func(r *reader) interface{} {
			m := &core.PutAck{ID: gossip.RequestID(r.u64())}
			r.reserved()
			m.Version = r.u64()
			return m
		},
	},
	{Kind: 15, Name: "core.PutBatchRequest",
		New: func() interface{} { return &core.PutBatchRequest{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*core.PutBatchRequest)
			b = appendU64(b, uint64(v.ID))
			b = appendObjects(b, v.Objs)
			return appendRouting(b, &v.Routing, true)
		},
		dec: func(r *reader) interface{} {
			m := &core.PutBatchRequest{
				Routing: core.Routing{ID: gossip.RequestID(r.u64())},
				Objs:    readObjects(r),
			}
			readRouting(r, &m.Routing, true)
			return m
		},
	},
	{Kind: 16, Name: "core.PutBatchAck",
		New: func() interface{} { return &core.PutBatchAck{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*core.PutBatchAck)
			b = appendU64(b, uint64(v.ID))
			return appendU32(b, uint32(v.Stored))
		},
		dec: func(r *reader) interface{} {
			return &core.PutBatchAck{ID: gossip.RequestID(r.u64()), Stored: int(r.u32())}
		},
	},
	{Kind: 17, Name: "core.GetRequest",
		New: func() interface{} { return &core.GetRequest{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*core.GetRequest)
			b = appendU64(b, uint64(v.ID))
			b = appendStr(b, v.Key)
			b = appendU64(b, v.Version)
			return appendRouting(b, &v.Routing, false)
		},
		dec: func(r *reader) interface{} {
			m := &core.GetRequest{
				Routing: core.Routing{ID: gossip.RequestID(r.u64())},
				Key:     r.str(), Version: r.u64(),
			}
			readRouting(r, &m.Routing, false)
			return m
		},
	},
	{Kind: 18, Name: "core.GetReply",
		New: func() interface{} { return &core.GetReply{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*core.GetReply)
			b = appendU64(b, uint64(v.ID))
			b = appendReserved(b)
			b = appendU64(b, v.Version)
			b = appendBytes(b, v.Value)
			return appendI32(b, v.Slice)
		},
		dec: func(r *reader) interface{} {
			m := &core.GetReply{ID: gossip.RequestID(r.u64())}
			r.reserved()
			m.Version, m.Value, m.Slice = r.u64(), r.blob(), r.i32()
			return m
		},
	},
	{Kind: 21, Name: "core.DeleteBatchRequest",
		New: func() interface{} { return &core.DeleteBatchRequest{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*core.DeleteBatchRequest)
			b = appendU64(b, uint64(v.ID))
			b = appendLen(b, len(v.Items))
			for _, it := range v.Items {
				b = appendStr(b, it.Key)
				b = appendU64(b, it.Version)
			}
			return appendRouting(b, &v.Routing, true)
		},
		dec: func(r *reader) interface{} {
			m := &core.DeleteBatchRequest{Routing: core.Routing{ID: gossip.RequestID(r.u64())}}
			n := r.length()
			if n > 0 && r.err == nil {
				m.Items = make([]core.DeleteItem, 0, n)
				for i := 0; i < n && r.err == nil; i++ {
					m.Items = append(m.Items, core.DeleteItem{Key: r.str(), Version: r.u64()})
				}
			}
			readRouting(r, &m.Routing, true)
			return m
		},
	},
	{Kind: 22, Name: "core.DeleteBatchAck",
		New: func() interface{} { return &core.DeleteBatchAck{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*core.DeleteBatchAck)
			b = appendU64(b, uint64(v.ID))
			return appendU32(b, uint32(v.Applied))
		},
		dec: func(r *reader) interface{} {
			return &core.DeleteBatchAck{ID: gossip.RequestID(r.u64()), Applied: int(r.u32())}
		},
	},

	// -- control plane: mate discovery --
	{Kind: 23, Name: "core.MateQuery",
		New: func() interface{} { return &core.MateQuery{} },
		enc: func(b []byte, m interface{}) []byte { return appendI32(b, m.(*core.MateQuery).Slice) },
		dec: func(r *reader) interface{} { return &core.MateQuery{Slice: r.i32()} },
	},
	{Kind: 24, Name: "core.MateReply",
		New: func() interface{} { return &core.MateReply{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*core.MateReply)
			b = appendI32(b, v.Slice)
			return appendDescs(b, v.Mates)
		},
		dec: func(r *reader) interface{} {
			return &core.MateReply{Slice: r.i32(), Mates: readDescs(r)}
		},
	},

	// -- DHT baseline --
	{Kind: 25, Name: "dht.Gossip",
		New: func() interface{} { return &dht.Gossip{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*dht.Gossip)
			b = appendLen(b, len(v.Members))
			for _, mem := range v.Members {
				b = appendU64(b, uint64(mem.ID))
				b = appendU64(b, mem.Heartbeat)
				b = appendU64(b, uint64(mem.Position))
			}
			return b
		},
		dec: func(r *reader) interface{} {
			n := r.length()
			var members []dht.Member
			if n > 0 && r.err == nil {
				members = make([]dht.Member, 0, n)
				for i := 0; i < n && r.err == nil; i++ {
					members = append(members, dht.Member{
						ID: transport.NodeID(r.u64()), Heartbeat: r.u64(), Position: dht.Position(r.u64()),
					})
				}
			}
			return &dht.Gossip{Members: members}
		},
	},
	{Kind: 26, Name: "dht.PutRequest",
		New: func() interface{} { return &dht.PutRequest{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*dht.PutRequest)
			b = appendU64(b, v.ID)
			b = appendStr(b, v.Key)
			b = appendU64(b, v.Version)
			b = appendBytes(b, v.Value)
			b = appendU64(b, uint64(v.Origin))
			b = appendU8(b, v.Hops)
			return appendBool(b, v.Replica)
		},
		dec: func(r *reader) interface{} {
			return &dht.PutRequest{
				ID: r.u64(), Key: r.str(), Version: r.u64(), Value: r.blob(),
				Origin: transport.NodeID(r.u64()), Hops: r.u8(), Replica: r.boolean(),
			}
		},
	},
	{Kind: 27, Name: "dht.PutAck",
		New: func() interface{} { return &dht.PutAck{} },
		enc: func(b []byte, m interface{}) []byte { return appendU64(b, m.(*dht.PutAck).ID) },
		dec: func(r *reader) interface{} { return &dht.PutAck{ID: r.u64()} },
	},
	{Kind: 28, Name: "dht.GetRequest",
		New: func() interface{} { return &dht.GetRequest{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*dht.GetRequest)
			b = appendU64(b, v.ID)
			b = appendStr(b, v.Key)
			b = appendU64(b, uint64(v.Origin))
			b = appendU8(b, v.Hops)
			return appendU8(b, v.Attempt)
		},
		dec: func(r *reader) interface{} {
			return &dht.GetRequest{
				ID: r.u64(), Key: r.str(), Origin: transport.NodeID(r.u64()),
				Hops: r.u8(), Attempt: r.u8(),
			}
		},
	},
	{Kind: 29, Name: "dht.GetReply",
		New: func() interface{} { return &dht.GetReply{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*dht.GetReply)
			b = appendU64(b, v.ID)
			b = appendStr(b, v.Key)
			b = appendU64(b, v.Version)
			b = appendBytes(b, v.Value)
			return appendBool(b, v.Found)
		},
		dec: func(r *reader) interface{} {
			return &dht.GetReply{
				ID: r.u64(), Key: r.str(), Version: r.u64(), Value: r.blob(), Found: r.boolean(),
			}
		},
	},

	// -- segment-streaming bootstrap --
	{Kind: 30, Name: "bootstrap.ManifestRequest",
		New: func() interface{} { return &bootstrap.ManifestRequest{} },
		enc: func(b []byte, m interface{}) []byte { return appendI32(b, m.(*bootstrap.ManifestRequest).Slice) },
		dec: func(r *reader) interface{} { return &bootstrap.ManifestRequest{Slice: r.i32()} },
	},
	{Kind: 31, Name: "bootstrap.ManifestReply",
		New: func() interface{} { return &bootstrap.ManifestReply{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*bootstrap.ManifestReply)
			b = appendI32(b, v.Slice)
			return appendSegmentInfos(b, v.Segments)
		},
		dec: func(r *reader) interface{} {
			return &bootstrap.ManifestReply{Slice: r.i32(), Segments: readSegmentInfos(r)}
		},
	},
	{Kind: 32, Name: "bootstrap.SegmentFetch",
		New: func() interface{} { return &bootstrap.SegmentFetch{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*bootstrap.SegmentFetch)
			b = appendU64(b, v.Segment)
			return appendU64(b, uint64(v.Offset))
		},
		dec: func(r *reader) interface{} {
			return &bootstrap.SegmentFetch{Segment: r.u64(), Offset: int64(r.u64())}
		},
	},
	{Kind: 33, Name: "bootstrap.SegmentChunk",
		New: func() interface{} { return &bootstrap.SegmentChunk{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*bootstrap.SegmentChunk)
			b = appendU64(b, v.Segment)
			b = appendU64(b, uint64(v.Offset))
			b = appendU32(b, v.CRC)
			return appendBytes(b, v.Data)
		},
		dec: func(r *reader) interface{} {
			return &bootstrap.SegmentChunk{
				Segment: r.u64(), Offset: int64(r.u64()), CRC: r.u32(), Data: r.blob(),
			}
		},
	},
	{Kind: 34, Name: "bootstrap.SegmentDone",
		New: func() interface{} { return &bootstrap.SegmentDone{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*bootstrap.SegmentDone)
			b = appendU64(b, v.Segment)
			b = appendU64(b, uint64(v.Bytes))
			return appendBool(b, v.Missing)
		},
		dec: func(r *reader) interface{} {
			return &bootstrap.SegmentDone{Segment: r.u64(), Bytes: int64(r.u64()), Missing: r.boolean()}
		},
	},

	// -- data plane: one shard's answers to one origin, as one frame --
	{Kind: 36, Name: "core.Replies",
		New: func() interface{} { return &core.Replies{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*core.Replies)
			b = appendLen(b, len(v.Msgs))
			for _, msg := range v.Msgs {
				s := specOf(msg)
				b = appendU16(b, s.Kind)
				b = s.enc(b, msg)
			}
			return b
		},
		dec: func(r *reader) interface{} {
			n := r.length()
			var msgs []interface{}
			if n > 0 && r.err == nil {
				msgs = make([]interface{}, 0, n)
				for i := 0; i < n && r.err == nil; i++ {
					kind := r.u16()
					if r.err == nil && !answerKind(kind) {
						r.err = fmt.Errorf("%w: kind %d", errNotAnswer, kind)
					}
					if r.err == nil {
						msgs = append(msgs, specOfKind(kind).dec(r))
					}
				}
			}
			return &core.Replies{Msgs: msgs}
		},
	},

	// -- control plane: anti-entropy, the whole descent in one kind --
	{Kind: 37, Name: "antientropy.Reconcile",
		New: func() interface{} { return &antientropy.Reconcile{} },
		enc: func(b []byte, m interface{}) []byte {
			v := m.(*antientropy.Reconcile)
			b = appendI32(b, v.Slice)
			b = appendLen(b, len(v.Items))
			for _, it := range v.Items {
				b = appendU8(b, it.Depth)
				b = appendUvarint(b, it.Prefix)
				b = appendWords(b, it.Sums)
				if len(it.Sums) == 0 {
					b = appendHeaders(b, it.Headers)
				}
			}
			return b
		},
		dec: func(r *reader) interface{} {
			m := &antientropy.Reconcile{Slice: r.i32()}
			n := r.length()
			if n > 0 && r.err == nil {
				m.Items = make([]antientropy.Item, 0, n)
				for i := 0; i < n && r.err == nil; i++ {
					it := antientropy.Item{Depth: r.u8(), Prefix: r.uvarint(), Sums: readWords(r)}
					if len(it.Sums) == 0 {
						it.Headers = readHeaders(r)
					}
					if r.err == nil && !it.Valid() {
						r.err = fmt.Errorf("%w: depth %d, prefix %#x, %d sums", errBadItem, it.Depth, it.Prefix, len(it.Sums))
					}
					m.Items = append(m.Items, it)
				}
			}
			return m
		},
	},
}

// reservedKinds are retired kind IDs, never to be reused: 6 was the
// push-sum averaging message, which no node ever sent; 7–10 and 35 were
// the repair messages before antientropy.Reconcile carried the whole
// exchange; 19 and 20 were the single-object delete and its ack, before
// every delete became a DeleteBatchRequest (kind 21) of one or more
// items. A frame of one decodes as Unknown, which a node counts and
// ignores.
var reservedKinds = []uint16{6, 7, 8, 9, 10, 19, 20, 35}

// errBadItem rejects a repair item that names no key-hash prefix or
// whose children would not fit one (antientropy.Item.Valid).
var errBadItem = errors.New("wire: invalid repair item")

// errNotAnswer rejects a reply batch that nests anything but an answer:
// a batch inside a batch, a request, a control message or an unknown
// kind. Only what the encoder can write again decodes.
var errNotAnswer = errors.New("wire: reply batch nests a non-answer")

// answerKind reports whether kind is one of the four answers a reply
// batch may carry: PutAck, PutBatchAck, GetReply and DeleteBatchAck.
func answerKind(kind uint16) bool {
	switch kind {
	case 14, 16, 18, 22:
		return true
	}
	return false
}

var (
	byKind map[uint16]*Spec
	byType map[reflect.Type]*Spec
)

func init() {
	byKind = make(map[uint16]*Spec, len(Messages))
	byType = make(map[reflect.Type]*Spec, len(Messages))
	for i := range Messages {
		s := &Messages[i]
		if s.Kind == 0 {
			panic("wire: kind 0 is reserved (marks an absent entry)")
		}
		if _, dup := byKind[s.Kind]; dup || slices.Contains(reservedKinds, s.Kind) {
			panic("wire: duplicate or reserved message kind " + s.Name)
		}
		t := reflect.TypeOf(s.New())
		if _, dup := byType[t]; dup {
			panic("wire: duplicate message type " + s.Name)
		}
		byKind[s.Kind] = s
		byType[t] = s
	}
}

func specOf(msg interface{}) *Spec { return byType[reflect.TypeOf(msg)] }
func specOfKind(kind uint16) *Spec { return byKind[kind] }

// ---- shared composite encoders/decoders ----

func appendDescs(b []byte, ds []pss.Descriptor) []byte {
	b = appendLen(b, len(ds))
	for _, d := range ds {
		b = appendU64(b, uint64(d.ID))
		b = appendU32(b, d.Age)
		b = appendF64(b, d.Attr)
		b = appendI32(b, d.Slice)
		b = appendStr(b, d.Addr)
	}
	return b
}

func readDescs(r *reader) []pss.Descriptor {
	n := r.length()
	if n == 0 || r.err != nil {
		return nil
	}
	ds := make([]pss.Descriptor, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		ds = append(ds, pss.Descriptor{
			ID: transport.NodeID(r.u64()), Age: r.u32(), Attr: r.f64(),
			Slice: r.i32(), Addr: r.str(),
		})
	}
	return ds
}

func appendHeaders(b []byte, hs []antientropy.Header) []byte {
	b = appendLen(b, len(hs))
	for _, h := range hs {
		b = appendStr(b, h.Key)
		b = appendU64(b, h.Version)
	}
	return b
}

func readHeaders(r *reader) []antientropy.Header {
	n := r.length()
	if n == 0 || r.err != nil {
		return nil
	}
	hs := make([]antientropy.Header, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		hs = append(hs, antientropy.Header{Key: r.str(), Version: r.u64()})
	}
	return hs
}

func appendObjects(b []byte, objs []store.Object) []byte {
	b = appendLen(b, len(objs))
	for _, o := range objs {
		b = appendStr(b, o.Key)
		b = appendU64(b, o.Version)
		b = appendBytes(b, o.Value)
	}
	return b
}

func readObjects(r *reader) []store.Object {
	n := r.length()
	if n == 0 || r.err != nil {
		return nil
	}
	objs := make([]store.Object, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		objs = append(objs, store.Object{Key: r.str(), Version: r.u64(), Value: r.blob()})
	}
	return objs
}

// appendWords writes a counted list of 64-bit words (repair
// fingerprints).
func appendWords(b []byte, ws []uint64) []byte {
	b = appendLen(b, len(ws))
	for _, w := range ws {
		b = appendU64(b, w)
	}
	return b
}

func readWords(r *reader) []uint64 {
	n := r.length()
	if n == 0 || r.err != nil {
		return nil
	}
	ws := make([]uint64, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		ws = append(ws, r.u64())
	}
	return ws
}

// appendRouting ends each of the four request kinds: the header after
// the id, which leads the frame. A get has no NoAck byte. TraceID and
// Flood are two OPTIONAL TRAILING fields: a field is emitted only when
// something at or after it is non-zero.
//
//	TraceID == 0, !Flood: nothing   (byte-identical to pre-trace frames)
//	TraceID != 0, !Flood: u64 id    (byte-identical to pre-flood frames)
//	Flood:                u64 id (zero when untraced), then u8 1
//
// Decoders of either earlier layout stop where their fields end and
// ignore the rest of the frame, so the request still routes: a
// pre-trace node loses the journal entries, a pre-flood node — which
// knows no other way to relay than the fanout — loses nothing. The tail
// only works because the header is the FINAL part of every request, and
// it can only grow at its end: a further field is emitted after the
// flag, and forces the fields before it out even when they are zero.
func appendRouting(b []byte, h *core.Routing, noAck bool) []byte {
	b = appendU64(b, uint64(h.Origin))
	b = appendStr(b, h.OriginAddr)
	b = appendU8(b, h.TTL)
	b = appendBool(b, h.Intra)
	if noAck {
		b = appendBool(b, h.NoAck)
	}
	if h.TraceID != 0 || h.Flood {
		b = appendU64(b, h.TraceID)
	}
	if h.Flood {
		b = appendU8(b, 1)
	}
	return b
}

// readRouting fills in what appendRouting wrote; the caller has read
// the id.
func readRouting(r *reader, h *core.Routing, noAck bool) {
	h.Origin, h.OriginAddr = transport.NodeID(r.u64()), r.str()
	h.TTL, h.Intra = r.u8(), r.boolean()
	if noAck {
		h.NoAck = r.boolean()
	}
	// Pre-trace frames end before the id, pre-flood frames before the flag.
	if r.err == nil && r.off < len(r.b) {
		h.TraceID = r.u64()
	}
	if r.err == nil && r.off < len(r.b) {
		h.Flood = r.boolean()
	}
}

func appendSegmentInfos(b []byte, segs []store.SegmentInfo) []byte {
	b = appendLen(b, len(segs))
	for _, s := range segs {
		b = appendU64(b, s.ID)
		b = appendU64(b, uint64(s.Bytes))
		b = appendU64(b, uint64(s.Records))
		b = appendU32(b, s.CRC)
		b = appendStr(b, s.MinKey)
		b = appendStr(b, s.MaxKey)
	}
	return b
}

func readSegmentInfos(r *reader) []store.SegmentInfo {
	n := r.length()
	if n == 0 || r.err != nil {
		return nil
	}
	segs := make([]store.SegmentInfo, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		segs = append(segs, store.SegmentInfo{
			ID: r.u64(), Bytes: int64(r.u64()), Records: int(r.u64()), CRC: r.u32(),
			MinKey: r.str(), MaxKey: r.str(),
		})
	}
	return segs
}
