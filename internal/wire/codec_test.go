package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dataflasks/internal/aggregate"
	"dataflasks/internal/antientropy"
	"dataflasks/internal/bootstrap"
	"dataflasks/internal/core"
	"dataflasks/internal/dht"
	"dataflasks/internal/pss"
	"dataflasks/internal/slicing"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// fixtures returns one populated envelope per message kind, with every
// field non-zero so a skipped or reordered field cannot round-trip
// cleanly by accident — but for the requests' Flood flag, which
// TestFloodFlagLegacyFrameCompat round-trips, so that the golden frames
// stay byte for byte those of the release before the flag. Each
// envelope's ids derive from its kind, so retiring a kind moves no
// other frame. The golden-frames test hashes these encodings, so
// changing a fixture means regenerating testdata/frames.golden.
func fixtures() []Envelope {
	descs := []pss.Descriptor{
		{ID: 11, Age: 3, Attr: 0.25, Slice: 2, Addr: "10.0.0.11:7001"},
		{ID: 12, Age: 0, Attr: 0.75, Slice: -1, Addr: ""},
	}
	headers := []antientropy.Header{
		{Key: "alpha", Version: 1},
		{Key: "beta", Version: 9000000000},
	}
	objs := []store.Object{
		{Key: "alpha", Version: 1, Value: []byte("v1")},
		{Key: "beta", Version: 2, Value: nil},
	}
	msgs := []interface{}{
		&pss.ShuffleRequest{Sample: descs},
		&pss.ShuffleReply{Sample: descs[:1]},
		&slicing.SwapRequest{Attr: 0.5, X: 0.125, Seq: 7},
		&slicing.SwapReply{Attr: 1.5, X: 0.25, Swapped: true, Busy: false, Seq: 7},
		&aggregate.ExtremaMsg{Seeds: []float64{0.1, 0.9, 0.5}},
		&antientropy.Pull{Headers: headers},
		&antientropy.Push{Objects: objs},
		&core.PutRequest{
			Routing: core.Routing{ID: 42, Origin: 9, OriginAddr: "10.0.0.9:7009", TTL: 4, Intra: true, NoAck: true, TraceID: 0x7ace1},
			Key:     "k", Version: 3, Value: []byte("val"),
		},
		&core.PutAck{ID: 42, Version: 3},
		&core.PutBatchRequest{
			Routing: core.Routing{ID: 43, Origin: 9, OriginAddr: "10.0.0.9:7009", TTL: 4, Intra: false, NoAck: false, TraceID: 0x7ace2},
			Objs:    objs,
		},
		&core.PutBatchAck{ID: 43, Stored: 2},
		&core.GetRequest{
			Routing: core.Routing{ID: 44, Origin: 9, OriginAddr: "10.0.0.9:7009", TTL: 4, Intra: true, TraceID: 0x7ace3},
			Key:     "k", Version: store.Latest,
		},
		&core.GetReply{ID: 44, Version: 3, Value: []byte("val"), Slice: 2},
		&core.DeleteBatchRequest{
			Routing: core.Routing{ID: 46, Origin: 9, OriginAddr: "10.0.0.9:7009", TTL: 4, Intra: true, NoAck: true, TraceID: 0x7ace5},
			Items:   []core.DeleteItem{{Key: "a", Version: 1}, {Key: "b", Version: store.Latest}},
		},
		&core.DeleteBatchAck{ID: 46, Applied: 2},
		&core.MateQuery{Slice: 5},
		&core.MateReply{Slice: 5, Mates: descs},
		&dht.Gossip{Members: []dht.Member{{ID: 7, Heartbeat: 11, Position: 1 << 60}}},
		&dht.PutRequest{ID: 47, Key: "k", Version: 3, Value: []byte("val"),
			Origin: 9, Hops: 2, Replica: true},
		&dht.PutAck{ID: 47},
		&dht.GetRequest{ID: 48, Key: "k", Origin: 9, Hops: 2, Attempt: 1},
		&dht.GetReply{ID: 48, Key: "k", Version: 3, Value: []byte("val"), Found: true},
		&bootstrap.ManifestRequest{Slice: 4},
		&bootstrap.ManifestReply{Slice: 4, Segments: []store.SegmentInfo{
			{ID: 3, Bytes: 4096, Records: 17, CRC: 0xfeedf00d, MinKey: "alpha", MaxKey: "zed"},
			{ID: 5, Bytes: 128, Records: 1, CRC: 0x1, MinKey: "m", MaxKey: "m"},
		}},
		&bootstrap.SegmentFetch{Segment: 3, Offset: 2048},
		&bootstrap.SegmentChunk{Segment: 3, Offset: 2048, CRC: 0xabad1dea, Data: []byte("record bytes")},
		&bootstrap.SegmentDone{Segment: 3, Bytes: 4096, Missing: true},
		&core.Replies{Msgs: []interface{}{
			&core.PutAck{ID: 49, Version: 3},
			&core.GetReply{ID: 50, Version: 4, Value: []byte("val"), Slice: 2},
			&core.PutBatchAck{ID: 51, Stored: 2},
			&core.DeleteBatchAck{ID: 53, Applied: 1},
		}},
		&antientropy.Reconcile{Slice: 2, Items: []antientropy.Item{
			{Depth: 3, Prefix: 5, Sums: []uint64{0xfeed, 0, 0xface0ff, 1 << 63}},
			{Depth: 13, Prefix: 0x1abc, Headers: headers},
		}},
	}
	envs := make([]Envelope, len(msgs))
	for i, m := range msgs {
		kind, _ := KindOf(m)
		envs[i] = Envelope{
			From: transport.NodeID(99 + kind), FromAddr: "10.0.0.1:7000",
			To: transport.NodeID(199 + kind), Msg: m,
		}
	}
	return envs
}

// TestFixturesCoverEveryMessage: every kind has a fixture (so the
// round-trip and golden tests reach it) and is named after its type.
func TestFixturesCoverEveryMessage(t *testing.T) {
	seen := make(map[uint16]bool)
	for _, env := range fixtures() {
		kind, ok := KindOf(env.Msg)
		if !ok {
			t.Fatalf("fixture %T not in message table", env.Msg)
		}
		seen[kind] = true
	}
	for _, s := range Messages {
		if !seen[s.Kind] {
			t.Errorf("message %s (kind %d) has no fixture", s.Name, s.Kind)
		}
		if typ := strings.TrimPrefix(fmt.Sprintf("%T", s.New()), "*"); s.Name == "" || s.Name != typ {
			t.Errorf("kind %d is named %q, want its type's name %q", s.Kind, s.Name, typ)
		}
	}
}

// TestRoundTripAllKinds: every message kind survives encode/decode
// unchanged, and every frame leads with the one version byte.
func TestRoundTripAllKinds(t *testing.T) {
	codec := BinaryCodec()
	for _, env := range fixtures() {
		frame, err := codec.Encode(nil, &env)
		if err != nil {
			t.Fatalf("encode %T: %v", env.Msg, err)
		}
		if len(frame) == 0 || frame[0] != transport.FrameBinary {
			t.Fatalf("frame of %T does not lead with the version byte", env.Msg)
		}
		got, err := codec.Decode(frame)
		if err != nil {
			t.Fatalf("decode %T: %v", env.Msg, err)
		}
		if !reflect.DeepEqual(&env, got) {
			t.Fatalf("round trip changed %T:\nsent %+v\ngot  %+v", env.Msg, env, got)
		}
	}
}

// TestVersionSentinelsSurvive: store.Latest and store.AllVersions sit
// at the top of the uint64 range; the fixed-width version field must
// carry them exactly.
func TestVersionSentinelsSurvive(t *testing.T) {
	codec := BinaryCodec()
	for _, v := range []uint64{store.Latest, store.AllVersions} {
		for _, msg := range []interface{}{
			&core.GetRequest{Key: "k", Version: v},
			&core.DeleteBatchRequest{Items: []core.DeleteItem{{Key: "k", Version: v}}},
		} {
			frame, err := codec.Encode(nil, &Envelope{Msg: msg})
			if err != nil {
				t.Fatal(err)
			}
			got, err := codec.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Msg, msg) {
				t.Errorf("version sentinel %#x corrupted: %+v", v, got.Msg)
			}
		}
	}
}

// TestEmptyAndNilFieldsSurvive: zero-length strings and byte slices
// decode back to their empty forms, not to garbage or an error.
func TestEmptyAndNilFieldsSurvive(t *testing.T) {
	codec := BinaryCodec()
	frame, err := codec.Encode(nil, &Envelope{Msg: &core.PutRequest{Key: "", Value: nil}})
	if err != nil {
		t.Fatal(err)
	}
	env, err := codec.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	got := env.Msg.(*core.PutRequest)
	if got.Key != "" || len(got.Value) != 0 {
		t.Errorf("empty fields = %#v", got)
	}
}

// invalidItems are repair items the decoder must refuse: a prefix deeper
// than 64 bits or with bits above its depth, a child count that is not a
// power of two or above 256, and children past bit 64.
func invalidItems() []antientropy.Item {
	return []antientropy.Item{
		{Depth: 65},
		{Depth: 3, Prefix: 8, Headers: []antientropy.Header{{Key: "k", Version: 1}}},
		{Depth: 1, Sums: make([]uint64, 3)},
		{Sums: make([]uint64, 512)},
		{Depth: 61, Sums: make([]uint64, 16)},
	}
}

// TestReconcileRejectsInvalidItems: an item that names no key-hash
// prefix, or whose children would not fit one, fails the frame; the
// extremes that do fit decode.
func TestReconcileRejectsInvalidItems(t *testing.T) {
	codec := BinaryCodec()
	roundTrip := func(it antientropy.Item) (*Envelope, error) {
		frame, err := codec.Encode(nil, &Envelope{From: 1, To: 2, Msg: &antientropy.Reconcile{Slice: 1, Items: []antientropy.Item{it}}})
		if err != nil {
			t.Fatal(err)
		}
		return codec.Decode(frame)
	}
	for _, it := range invalidItems() {
		if env, err := roundTrip(it); !errors.Is(err, errBadItem) {
			t.Errorf("depth %d, prefix %#x, %d sums: decoded to %+v, err %v; want errBadItem", it.Depth, it.Prefix, len(it.Sums), env, err)
		}
	}
	for _, it := range []antientropy.Item{
		{Depth: 64, Prefix: 1<<64 - 1, Headers: []antientropy.Header{{Key: "k", Version: 1}}},
		{Depth: 56, Prefix: 1<<56 - 1, Sums: make([]uint64, 256)},
		{Sums: make([]uint64, 1)},
		{},
	} {
		if _, err := roundTrip(it); err != nil {
			t.Errorf("depth %d, %d sums: %v", it.Depth, len(it.Sums), err)
		}
	}
}

// legacyRequestFrame is one request kind's golden frame as pinned
// before TraceID existed (testdata/frames.golden at the pre-trace
// release), with the message it decodes to and the same message traced.
type legacyRequestFrame struct {
	name     string
	legacy   string
	from, to transport.NodeID
	untraced interface{}
	traced   interface{}
}

func legacyRequestFrames() []legacyRequestFrame {
	objs := []store.Object{
		{Key: "alpha", Version: 1, Value: []byte("v1")},
		{Key: "beta", Version: 2, Value: nil},
	}
	return []legacyRequestFrame{
		{
			name: "PutRequest",
			legacy: "010d007000000000000000d4000000000000000d31302e302e302e313a373030302a000000" +
				"00000000016b03000000000000000376616c09000000000000000d31302e302e302e393a37303039040101",
			from: 112, to: 212,
			untraced: &core.PutRequest{
				Routing: core.Routing{ID: 42, Origin: 9, OriginAddr: "10.0.0.9:7009", TTL: 4, Intra: true, NoAck: true},
				Key:     "k", Version: 3, Value: []byte("val"),
			},
			traced: &core.PutRequest{
				Routing: core.Routing{ID: 42, Origin: 9, OriginAddr: "10.0.0.9:7009", TTL: 4, Intra: true, NoAck: true, TraceID: 0x7ace1},
				Key:     "k", Version: 3, Value: []byte("val"),
			},
		},
		{
			name: "PutBatchRequest",
			legacy: "010f007200000000000000d6000000000000000d31302e302e302e313a373030302b000000" +
				"000000000205616c70686101000000000000000276310462657461020000000000000000090000000000" +
				"00000d31302e302e302e393a37303039040000",
			from: 114, to: 214,
			untraced: &core.PutBatchRequest{
				Routing: core.Routing{ID: 43, Origin: 9, OriginAddr: "10.0.0.9:7009", TTL: 4},
				Objs:    objs,
			},
			traced: &core.PutBatchRequest{
				Routing: core.Routing{ID: 43, Origin: 9, OriginAddr: "10.0.0.9:7009", TTL: 4, TraceID: 0x7ace2},
				Objs:    objs,
			},
		},
		{
			name: "GetRequest",
			legacy: "0111007400000000000000d8000000000000000d31302e302e302e313a373030302c000000" +
				"00000000016bffffffffffffffff09000000000000000d31302e302e302e393a373030390401",
			from: 116, to: 216,
			untraced: &core.GetRequest{
				Routing: core.Routing{ID: 44, Origin: 9, OriginAddr: "10.0.0.9:7009", TTL: 4, Intra: true},
				Key:     "k", Version: store.Latest,
			},
			traced: &core.GetRequest{
				Routing: core.Routing{ID: 44, Origin: 9, OriginAddr: "10.0.0.9:7009", TTL: 4, Intra: true, TraceID: 0x7ace3},
				Key:     "k", Version: store.Latest,
			},
		},
		{
			// A single delete: a batch of one item since kind 19
			// retired. The frame is the retired kind's pre-trace frame
			// (retiredFrames) with kind 21 and an item count of one.
			name: "DeleteRequest",
			legacy: "0115007600000000000000da000000000000000d31302e302e302e313a373030302d000000" +
				"0000000001016b030000000000000009000000000000000d31302e302e302e393a37303039040101",
			from: 118, to: 218,
			untraced: &core.DeleteBatchRequest{
				Routing: core.Routing{ID: 45, Origin: 9, OriginAddr: "10.0.0.9:7009", TTL: 4, Intra: true, NoAck: true},
				Items:   []core.DeleteItem{{Key: "k", Version: 3}},
			},
			traced: &core.DeleteBatchRequest{
				Routing: core.Routing{ID: 45, Origin: 9, OriginAddr: "10.0.0.9:7009", TTL: 4, Intra: true, NoAck: true, TraceID: 0x7ace4},
				Items:   []core.DeleteItem{{Key: "k", Version: 3}},
			},
		},
		{
			name: "DeleteBatchRequest",
			legacy: "0115007800000000000000dc000000000000000d31302e302e302e313a373030302e000000" +
				"0000000002016101000000000000000162ffffffffffffffff09000000000000000d31302e302e302e39" +
				"3a37303039040101",
			from: 120, to: 220,
			untraced: &core.DeleteBatchRequest{
				Routing: core.Routing{ID: 46, Origin: 9, OriginAddr: "10.0.0.9:7009", TTL: 4, Intra: true, NoAck: true},
				Items:   []core.DeleteItem{{Key: "a", Version: 1}, {Key: "b", Version: store.Latest}},
			},
			traced: &core.DeleteBatchRequest{
				Routing: core.Routing{ID: 46, Origin: 9, OriginAddr: "10.0.0.9:7009", TTL: 4, Intra: true, NoAck: true, TraceID: 0x7ace5},
				Items:   []core.DeleteItem{{Key: "a", Version: 1}, {Key: "b", Version: store.Latest}},
			},
		},
	}
}

// TestTraceIDLegacyFrameCompat pins the rolling-upgrade contract for
// request tracing on all four request messages (and a delete batch
// of one item, what a single delete is): TraceID rides as an
// optional TRAILING field. Three
// things must hold per message: the pre-trace frame layout still
// decodes (TraceID zero); an untraced request encodes byte-identically
// to that legacy layout; and a traced frame is exactly the legacy
// frame plus eight trailing bytes, which pre-trace decoders leave
// unread — they route the same request, just without journaling it.
func TestTraceIDLegacyFrameCompat(t *testing.T) {
	codec := BinaryCodec()
	for _, tc := range legacyRequestFrames() {
		t.Run(tc.name, func(t *testing.T) {
			legacy, err := hex.DecodeString(tc.legacy)
			if err != nil {
				t.Fatal(err)
			}
			env, err := codec.Decode(legacy)
			if err != nil {
				t.Fatalf("pre-trace frame no longer decodes: %v", err)
			}
			if !reflect.DeepEqual(env.Msg, tc.untraced) {
				t.Fatalf("pre-trace frame decoded to %+v, want %+v", env.Msg, tc.untraced)
			}

			header := Envelope{From: tc.from, FromAddr: "10.0.0.1:7000", To: tc.to}

			unsalted := header
			unsalted.Msg = tc.untraced
			frame, err := codec.Encode(nil, &unsalted)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, legacy) {
				t.Fatalf("untraced request drifted from the pre-trace layout\n got  %x\n want %x", frame, legacy)
			}

			traced := header
			traced.Msg = tc.traced
			frame, err = codec.Encode(nil, &traced)
			if err != nil {
				t.Fatal(err)
			}
			if len(frame) != len(legacy)+8 || !bytes.Equal(frame[:len(legacy)], legacy) {
				t.Fatalf("traced request must be the legacy frame plus a trailing trace id\n got  %x\n want %x + 8 trace bytes", frame, legacy)
			}
		})
	}
}

// withFlood returns a copy of a request with its Flood flag set.
func withFlood(msg interface{}) interface{} {
	c := reflect.New(reflect.TypeOf(msg).Elem())
	c.Elem().Set(reflect.ValueOf(msg).Elem())
	c.Elem().FieldByName("Flood").SetBool(true)
	return c.Interface()
}

// TestFloodFlagLegacyFrameCompat pins the rolling-upgrade contract for
// the Flood flag, the second optional trailing field of the four
// request messages (and a delete batch of one item). Per message: both earlier layouts (pre-trace, and
// traced pre-flood) decode with Flood false; an unflagged request
// encodes byte-identically to them; and a flagged frame is the traced
// layout — the id written even when it is zero — plus one trailing
// byte, which a pre-flood decoder leaves unread: it relays the request
// the only way it knows, the fanout the flag asks for.
func TestFloodFlagLegacyFrameCompat(t *testing.T) {
	codec := BinaryCodec()
	for _, tc := range legacyRequestFrames() {
		t.Run(tc.name, func(t *testing.T) {
			legacy, err := hex.DecodeString(tc.legacy)
			if err != nil {
				t.Fatal(err)
			}
			header := Envelope{From: tc.from, FromAddr: "10.0.0.1:7000", To: tc.to}
			encode := func(msg interface{}) []byte {
				env := header
				env.Msg = msg
				frame, err := codec.Encode(nil, &env)
				if err != nil {
					t.Fatal(err)
				}
				return frame
			}
			traced := encode(tc.traced)

			for _, old := range []struct {
				layout string
				frame  []byte
				msg    interface{}
				// zeroID is the id a flagged frame writes for a
				// request that has none.
				zeroID int
			}{
				{"pre-trace", legacy, tc.untraced, 8},
				{"pre-flood", traced, tc.traced, 0},
			} {
				env, err := codec.Decode(old.frame)
				if err != nil {
					t.Fatalf("%s frame no longer decodes: %v", old.layout, err)
				}
				if !reflect.DeepEqual(env.Msg, old.msg) {
					t.Fatalf("%s frame decoded to %+v, want %+v (Flood false)", old.layout, env.Msg, old.msg)
				}
				if got := encode(old.msg); !bytes.Equal(got, old.frame) {
					t.Fatalf("unflagged request drifted from the %s layout\n got  %x\n want %x", old.layout, got, old.frame)
				}

				flagged := withFlood(old.msg)
				got := encode(flagged)
				want := append(append(append([]byte(nil), old.frame...), make([]byte, old.zeroID)...), 1)
				if !bytes.Equal(got, want) {
					t.Fatalf("flagged request must be the %s frame, the id, then one flag byte\n got  %x\n want %x", old.layout, got, want)
				}
				env, err = codec.Decode(got)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(env.Msg, flagged) {
					t.Fatalf("flagged frame decoded to %+v, want %+v", env.Msg, flagged)
				}
			}
		})
	}
}

// legacyAnswerFrame is an answer frame as builds that echoed the
// request's key wrote it (testdata/frames.golden before answers stopped
// echoing), the keys it echoed in frame order, and the answer it decodes
// to now.
type legacyAnswerFrame struct {
	name   string
	legacy string
	keys   []string
	msg    interface{}
}

func legacyAnswerFrames() []legacyAnswerFrame {
	return []legacyAnswerFrame{
		{
			name:   "PutAck",
			legacy: "010e007100000000000000d5000000000000000d31302e302e302e313a373030302a00000000000000016b0300000000000000",
			keys:   []string{"k"},
			msg:    &core.PutAck{ID: 42, Version: 3},
		},
		{
			name: "GetReply",
			legacy: "0112007500000000000000d9000000000000000d31302e302e302e313a373030302c00000000000000016b030000000000" +
				"00000376616c02000000",
			keys: []string{"k"},
			msg:  &core.GetReply{ID: 44, Version: 3, Value: []byte("val"), Slice: 2},
		},
		{
			name: "Replies",
			legacy: "0124008700000000000000eb000000000000000d31302e302e302e313a37303030040e003100000000000000016b03000000" +
				"0000000012003200000000000000016704000000000000000376616c020000001000330000000000000002000000160035" +
				"0000000000000001000000",
			keys: []string{"k", "g"},
			msg: &core.Replies{Msgs: []interface{}{
				&core.PutAck{ID: 49, Version: 3},
				&core.GetReply{ID: 50, Version: 4, Value: []byte("val"), Slice: 2},
				&core.PutBatchAck{ID: 51, Stored: 2},
				&core.DeleteBatchAck{ID: 53, Applied: 1},
			}},
		},
	}
}

// TestAnswerKeySlotCompat pins the mixed-cluster contract of the answers'
// reserved key slot (kinds 14 and 18, alone or in a reply batch): a
// frame from a build that echoed the request's key still decodes to the
// same answer, the key read and dropped; and a frame this build writes
// is that frame with every key slot emptied to its one zero-length byte,
// so it holds no copy of the key, and an older decoder reads it as an
// answer with an empty key, which it never looked at.
func TestAnswerKeySlotCompat(t *testing.T) {
	codec := BinaryCodec()
	for _, tc := range legacyAnswerFrames() {
		t.Run(tc.name, func(t *testing.T) {
			legacy, err := hex.DecodeString(tc.legacy)
			if err != nil {
				t.Fatal(err)
			}
			env, err := codec.Decode(legacy)
			if err != nil {
				t.Fatalf("key-echoing frame no longer decodes: %v", err)
			}
			if !reflect.DeepEqual(env.Msg, tc.msg) {
				t.Fatalf("key-echoing frame decoded to %+v, want %+v", env.Msg, tc.msg)
			}

			frame, err := codec.Encode(nil, env)
			if err != nil {
				t.Fatal(err)
			}
			want := legacy
			for _, key := range tc.keys {
				want = bytes.Replace(want, appendStr(nil, key), []byte{0}, 1)
			}
			if len(want) != len(legacy)-len(strings.Join(tc.keys, "")) {
				t.Fatalf("the fixture does not echo %q", tc.keys)
			}
			if !bytes.Equal(frame, want) {
				t.Fatalf("answer frame is not the key-echoing layout with its key slots empty\n got  %x\n want %x", frame, want)
			}
		})
	}
}

// TestRepliesNestOnlyAnswers: a reply batch decodes only when every entry
// is one of the four answers. A batch inside a batch, a request, a
// control message, another protocol's ack or an unknown kind fails the
// frame, so whatever decodes encodes again.
func TestRepliesNestOnlyAnswers(t *testing.T) {
	codec := BinaryCodec()
	ack := &core.PutAck{ID: 7, Version: 1}
	for _, nested := range []interface{}{
		&core.Replies{Msgs: []interface{}{ack}},
		&core.PutRequest{Routing: core.Routing{ID: 8}, Key: "k", Version: 1},
		&core.GetRequest{Routing: core.Routing{ID: 9}, Key: "k"},
		&core.MateQuery{Slice: 1},
		&dht.PutAck{ID: 10},
		&pss.ShuffleRequest{},
	} {
		frame, err := codec.Encode(nil, &Envelope{From: 1, To: 2, Msg: &core.Replies{Msgs: []interface{}{ack, nested}}})
		if err != nil {
			t.Fatal(err)
		}
		if env, err := codec.Decode(frame); !errors.Is(err, errNotAnswer) {
			t.Errorf("batch nesting %T: decoded to %+v, err %v; want errNotAnswer", nested, env, err)
		}
	}

	frame := []byte{transport.FrameBinary}
	frame = appendU16(frame, 36)
	frame = appendU64(frame, 1)
	frame = appendU64(frame, 2)
	frame = appendStr(frame, "")
	frame = appendLen(frame, 1)
	frame = appendU16(frame, 9999)
	frame = append(frame, 0xde, 0xad)
	if env, err := codec.Decode(frame); !errors.Is(err, errNotAnswer) {
		t.Errorf("batch nesting an unknown kind: decoded to %+v, err %v; want errNotAnswer", env, err)
	}
}

// retiredFrame is a frame of a retired kind as the last build that sent
// it wrote it, and the error its decoding now draws (nil: it decodes as
// Unknown).
type retiredFrame struct {
	name  string
	frame string
	err   error
}

// retiredFrames are the kind-19 and kind-20 frames — the single-object
// DeleteRequest and DeleteAck, retired when every delete became a
// DeleteBatchRequest — taken from testdata/frames.golden before the
// retirement: the traced request, its pre-trace form, the ack, and the
// reply batch that nested the ack.
func retiredFrames() []retiredFrame {
	return []retiredFrame{
		{"DeleteRequest", "0113007600000000000000da000000000000000d31302e302e302e313a373030302d00000000000000016b03" +
			"0000000000000009000000000000000d31302e302e302e393a37303039040101e4ac070000000000", nil},
		{"DeleteRequest pre-trace", "0113007600000000000000da000000000000000d31302e302e302e313a373030302d000000" +
			"00000000016b030000000000000009000000000000000d31302e302e302e393a37303039040101", nil},
		{"DeleteAck", "0114007700000000000000db000000000000000d31302e302e302e313a373030302d00000000000000016b03" +
			"00000000000000", nil},
		{"Replies nesting a DeleteAck", "0124008700000000000000eb000000000000000d31302e302e302e313a37303030050e0031" +
			"00000000000000016b030000000000000012003200000000000000016704000000000000000376616c0200000010003300" +
			"0000000000000200000014003400000000000000016405000000000000001600350000000000000001000000", errNotAnswer},
	}
}

// TestRetiredKindFrames: a retired request or ack from an older build
// decodes as Unknown with its kind, which a node counts and ignores; a
// reply batch nesting a retired answer fails whole, as any batch nesting
// a non-answer does.
func TestRetiredKindFrames(t *testing.T) {
	codec := BinaryCodec()
	for _, tc := range retiredFrames() {
		frame, err := hex.DecodeString(tc.frame)
		if err != nil {
			t.Fatal(err)
		}
		env, err := codec.Decode(frame)
		if tc.err != nil {
			if !errors.Is(err, tc.err) {
				t.Errorf("%s: decoded to %+v, err %v; want %v", tc.name, env, err, tc.err)
			}
			continue
		}
		kind := uint16(frame[1]) | uint16(frame[2])<<8
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if u, ok := env.Msg.(Unknown); !ok || u.Kind != kind {
			t.Errorf("%s: decoded to %#v, want Unknown{%d}", tc.name, env.Msg, kind)
		}
	}
}

// TestUnknownKind pins forward compatibility: a frame with a kind this
// build does not know decodes to Unknown instead of failing the
// stream, and the payload is ignored.
func TestUnknownKind(t *testing.T) {
	frame := []byte{transport.FrameBinary}
	frame = appendU16(frame, 9999)
	frame = appendU64(frame, 1)
	frame = appendU64(frame, 2)
	frame = appendStr(frame, "10.0.0.1:7000")
	frame = append(frame, 0xde, 0xad) // opaque newer-version payload
	env, err := BinaryCodec().Decode(frame)
	if err != nil {
		t.Fatalf("unknown kind should decode, got %v", err)
	}
	u, ok := env.Msg.(Unknown)
	if !ok || u.Kind != 9999 {
		t.Fatalf("want Unknown{9999}, got %#v", env.Msg)
	}
	if env.From != 1 || env.To != 2 || env.FromAddr != "10.0.0.1:7000" {
		t.Fatalf("envelope header mangled: %+v", env)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	codec := BinaryCodec()
	cases := [][]byte{
		nil,
		{},
		{0x7f},                        // unknown frame version
		{transport.FrameBinary},       // truncated header
		{transport.FrameBinary, 1, 0}, // kind only
	}
	for _, c := range cases {
		if _, err := codec.Decode(c); err == nil {
			t.Errorf("decode(%x) should fail", c)
		}
	}
	// A valid frame truncated anywhere in its body must error, never
	// panic or fabricate fields.
	env := fixtures()[0]
	frame, err := codec.Encode(nil, &env)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(frame); cut++ {
		if _, err := codec.Decode(frame[:cut]); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix should fail", cut, len(frame))
		}
	}
}

// TestBinaryEncodeAllocs pins the fast path's contract: encoding into
// a warmed buffer allocates at most once.
func TestBinaryEncodeAllocs(t *testing.T) {
	codec := BinaryCodec()
	env := Envelope{From: 1, FromAddr: "10.0.0.1:7000", To: 2, Msg: &core.PutBatchRequest{
		Routing: core.Routing{ID: 7, TTL: 3},
		Objs:    []store.Object{{Key: "k1", Version: 1, Value: make([]byte, 512)}},
	}}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		out, err := codec.Encode(buf[:0], &env)
		if err != nil {
			t.Fatal(err)
		}
		buf = out[:0]
	})
	if allocs > 1 {
		t.Fatalf("binary encode allocates %.1f times per op, want <= 1", allocs)
	}
}

// TestDecodeRejectsVersionZero: byte 0 once named a second codec; it
// is now just another unknown version, whatever follows it.
func TestDecodeRejectsVersionZero(t *testing.T) {
	codec := BinaryCodec()
	env := fixtures()[0]
	frame, err := codec.Encode(nil, &env)
	if err != nil {
		t.Fatal(err)
	}
	frame[0] = 0
	if _, err := codec.Decode(frame); !errors.Is(err, errFrameVersion) {
		t.Fatalf("version byte 0: err = %v, want errFrameVersion", err)
	}
}
