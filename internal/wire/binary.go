package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dataflasks/internal/transport"
)

// Frame layout (version byte transport.FrameBinary):
//
//	[0]    version byte
//	[1:3]  kind ID, little-endian uint16 (Messages table)
//	[3:11] From node id, little-endian uint64
//	[11:19] To node id, little-endian uint64
//	[19:]  FromAddr (uvarint length + bytes), then the per-kind payload
//
// Scalars are fixed-width little-endian, but for the few that are small
// as a rule (a repair item's prefix), which are uvarints; strings, byte
// slices and repeated groups carry a uvarint length/count prefix. The
// layout is pinned by the golden-frames test: changing it requires a new
// frame version byte, not an in-place edit.

var (
	errFrameEmpty   = errors.New("wire: empty frame")
	errFrameShort   = errors.New("wire: truncated frame")
	errFrameVersion = errors.New("wire: unknown frame version")
)

// binaryCodec is the stateless Codec implementation.
type binaryCodec struct{}

// BinaryCodec returns the wire codec.
func BinaryCodec() Codec { return binaryCodec{} }

// Encode implements Codec: it appends one frame to buf. With a warmed
// buffer the encode path allocates nothing.
func (binaryCodec) Encode(buf []byte, env *Envelope) ([]byte, error) {
	spec := specOf(env.Msg)
	if spec == nil {
		return buf, fmt.Errorf("wire: message type %T is not in the message table", env.Msg)
	}
	buf = append(buf, transport.FrameBinary)
	buf = appendU16(buf, spec.Kind)
	buf = appendU64(buf, uint64(env.From))
	buf = appendU64(buf, uint64(env.To))
	buf = appendStr(buf, env.FromAddr)
	return spec.enc(buf, env.Msg), nil
}

// Decode implements Codec. Any leading byte but transport.FrameBinary
// is rejected with errFrameVersion.
func (binaryCodec) Decode(data []byte) (*Envelope, error) {
	if len(data) == 0 {
		return nil, errFrameEmpty
	}
	if data[0] != transport.FrameBinary {
		return nil, fmt.Errorf("%w: %d", errFrameVersion, data[0])
	}
	r := reader{b: data, off: 1}
	kind := r.u16()
	env := &Envelope{
		From:     transport.NodeID(r.u64()),
		To:       transport.NodeID(r.u64()),
		FromAddr: r.str(),
	}
	if r.err != nil {
		return nil, r.err
	}
	spec := specOfKind(kind)
	if spec == nil {
		// A newer peer's message: deliverable, ignorable, not an error.
		env.Msg = Unknown{Kind: kind}
		return env, nil
	}
	env.Msg = spec.dec(&r)
	if r.err != nil {
		return nil, r.err
	}
	return env, nil
}

// ---- append helpers (encode) ----

func appendU8(b []byte, v uint8) []byte   { return append(b, v) }
func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI32(b []byte, v int32) []byte  { return appendU32(b, uint32(v)) }
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendLen(b []byte, n int) []byte        { return appendUvarint(b, uint64(n)) }
func appendStr(b []byte, s string) []byte {
	b = appendLen(b, len(s))
	return append(b, s...)
}
func appendBytes(b []byte, p []byte) []byte {
	b = appendLen(b, len(p))
	return append(b, p...)
}

// ---- reader (decode) ----

// reader walks a frame, latching the first error; helpers return zero
// values after a failure so decode functions stay linear.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = errFrameShort
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil || n < 0 || len(r.b)-r.off < n {
		r.fail()
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *reader) u8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *reader) u16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

func (r *reader) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *reader) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *reader) i32() int32    { return int32(r.u32()) }
func (r *reader) f64() float64  { return math.Float64frombits(r.u64()) }
func (r *reader) boolean() bool { return r.u8() != 0 }
func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}
func (r *reader) length() int {
	v := r.uvarint()
	if v > uint64(len(r.b)) {
		// A length can never exceed the frame itself; rejecting early
		// keeps fuzzed lengths from provoking huge allocations.
		r.fail()
		return 0
	}
	return int(v)
}

func (r *reader) str() string {
	n := r.length()
	p := r.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}

// blob returns a copy: frames are reused buffers, but decoded messages
// (values, keys) outlive them.
func (r *reader) blob() []byte {
	n := r.length()
	p := r.take(n)
	if p == nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}
