package wire

import (
	"fmt"
	"testing"

	"dataflasks/internal/antientropy"
	"dataflasks/internal/core"
	"dataflasks/internal/pss"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// benchEnvelopes are the three wire-dominant message shapes: a batched
// write (the data-plane hot path), a repair opener of 256 range
// fingerprints (the anti-entropy steady state of a large store), and a
// shuffle (the PSS control plane, sent every round by every node).
func benchEnvelopes() map[string]Envelope {
	objs := make([]store.Object, 32)
	for i := range objs {
		objs[i] = store.Object{
			Key:     fmt.Sprintf("bench/object/%04d", i),
			Version: uint64(i + 1),
			Value:   make([]byte, 256),
		}
	}
	descs := make([]pss.Descriptor, 10)
	for i := range descs {
		descs[i] = pss.Descriptor{
			ID: transport.NodeID(1000 + i), Age: uint32(i), Attr: float64(i) / 10,
			Slice: int32(i % 4), Addr: fmt.Sprintf("10.0.0.%d:7000", i+1),
		}
	}
	return map[string]Envelope{
		"put_batch": {From: 1, FromAddr: "10.0.0.1:7000", To: 2, Msg: &core.PutBatchRequest{
			Routing: core.Routing{ID: 7, Origin: 1, OriginAddr: "10.0.0.1:7000", TTL: 4},
			Objs:    objs,
		}},
		"opener": {From: 1, FromAddr: "10.0.0.1:7000", To: 2, Msg: &antientropy.Reconcile{
			Slice: 3, Items: []antientropy.Item{{Sums: make([]uint64, 256)}},
		}},
		"shuffle": {From: 1, FromAddr: "10.0.0.1:7000", To: 2, Msg: &pss.ShuffleRequest{
			Sample: descs,
		}},
	}
}

func BenchmarkEncode(b *testing.B) {
	codec := BinaryCodec()
	for name, env := range benchEnvelopes() {
		b.Run(name, func(b *testing.B) {
			buf := make([]byte, 0, 1<<16)
			var err error
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, err = codec.Encode(buf[:0], &env)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	codec := BinaryCodec()
	for name, env := range benchEnvelopes() {
		frame, err := codec.Encode(nil, &env)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				if _, err := codec.Decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
