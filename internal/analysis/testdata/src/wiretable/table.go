// Package wire is a wiretable fixture: a message table seeded with a
// kind collision, a zero kind, a missing codec, a Name/New mismatch
// and a missing golden frame.
package wire

type reader struct{}

type Spec struct {
	Kind uint16
	Name string
	New  func() interface{}
	enc  func(b []byte, msg interface{}) []byte
	dec  func(r *reader) interface{}
}

type Ping struct{}
type Pong struct{}
type Zero struct{}
type Stray struct{}
type NoCodec struct{}
type NoGolden struct{}
type SegManifest struct{}
type SegChunk struct{}
type SegCollide struct{}

var Messages = []Spec{
	{Kind: 1, Name: "wire.Ping",
		New: func() interface{} { return &Ping{} },
		enc: func(b []byte, msg interface{}) []byte { return b },
		dec: func(r *reader) interface{} { return &Ping{} },
	},
	{Kind: 1, Name: "wire.Pong", // want `wire.Pong reuses kind 1, already taken by wire.Ping`
		New: func() interface{} { return &Pong{} },
		enc: func(b []byte, msg interface{}) []byte { return b },
		dec: func(r *reader) interface{} { return &Pong{} },
	},
	{Kind: 0, Name: "wire.Zero", // want `wire.Zero has kind 0, the reserved invalid kind`
		New: func() interface{} { return new(Zero) }, // new(T) form resolves like &T{}
		enc: func(b []byte, msg interface{}) []byte { return b },
		dec: func(r *reader) interface{} { return nil },
	},
	{Kind: 3, Name: "wire.NoCodec", // want `wire.NoCodec has no binary field codec`
		New: func() interface{} { return &NoCodec{} },
	},
	{Kind: 4, Name: "wire.Mismatch", // want `wire.Mismatch constructs wire.Stray; Name and New disagree`
		New: func() interface{} { return &Stray{} },
		enc: func(b []byte, msg interface{}) []byte { return b },
		dec: func(r *reader) interface{} { return &Stray{} },
	},
	{Kind: 5, Name: "wire.NoGolden", // want `wire.NoGolden has no golden frame`
		New: func() interface{} { return &NoGolden{} },
		enc: func(b []byte, msg interface{}) []byte { return b },
		dec: func(r *reader) interface{} { return &NoGolden{} },
	},
	{Kind: 6, Name: "core.Registered",
		enc: func(b []byte, msg interface{}) []byte { return b },
		dec: func(r *reader) interface{} { return nil },
	},
	// The segment-streaming block mirrors the real table's kinds 30+:
	// two clean specs, then a new message grabbing an already-assigned
	// segment kind — the exact mistake the pass exists to catch when
	// the bulk-transfer range grows.
	{Kind: 30, Name: "wire.SegManifest",
		New: func() interface{} { return &SegManifest{} },
		enc: func(b []byte, msg interface{}) []byte { return b },
		dec: func(r *reader) interface{} { return &SegManifest{} },
	},
	{Kind: 31, Name: "wire.SegChunk",
		New: func() interface{} { return &SegChunk{} },
		enc: func(b []byte, msg interface{}) []byte { return b },
		dec: func(r *reader) interface{} { return &SegChunk{} },
	},
	{Kind: 30, Name: "wire.SegCollide", // want `wire.SegCollide reuses kind 30, already taken by wire.SegManifest`
		New: func() interface{} { return &SegCollide{} },
		enc: func(b []byte, msg interface{}) []byte { return b },
		dec: func(r *reader) interface{} { return &SegCollide{} },
	},
	// Registered on behalf of the bootstrap fixture package (its send
	// sites resolve to "bootstrap.SegFetch"); declared New-less like
	// core.Registered since fixtures do not import each other.
	{Kind: 32, Name: "bootstrap.SegFetch",
		enc: func(b []byte, msg interface{}) []byte { return b },
		dec: func(r *reader) interface{} { return nil },
	},
}
