package wire

import (
	"testing"

	"dataflasks/internal/core"
	"dataflasks/internal/transport"
)

// FuzzDecodeBinary drives the hand-rolled decoder with arbitrary
// bytes. The decoder's contract under corruption: return an error or a
// well-formed envelope — never panic, never allocate absurdly (the
// length() guard bounds every slice by the frame size). Seeds are the
// valid encodings of every fixture plus a few hand-built edge frames,
// so the fuzzer starts on the real format and mutates from there.
func FuzzDecodeBinary(f *testing.F) {
	codec := BinaryCodec()
	for _, env := range fixtures() {
		frame, err := codec.Encode(nil, &env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// The request tail in its flagged forms: id and flag, and the zero
	// id a flagged but untraced request writes.
	for _, tc := range legacyRequestFrames() {
		for _, msg := range []interface{}{withFlood(tc.traced), withFlood(tc.untraced)} {
			frame, err := codec.Encode(nil, &Envelope{From: tc.from, To: tc.to, Msg: msg})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
		}
	}
	// Kinds 7–10 as a whole-store node writes them: no range set, with
	// and without the filter's salt.
	for _, tc := range legacyDigestFrames() {
		frame, err := codec.Encode(nil, &Envelope{From: tc.from, To: tc.to, Msg: tc.msg})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// A reply batch of one answer, and one that nests a batch, which the
	// decoder refuses: the fuzzer starts on both sides of that check.
	ack := &core.PutAck{ID: 7, Key: "k", Version: 1}
	for _, msg := range []interface{}{
		&core.Replies{Msgs: []interface{}{ack}},
		&core.Replies{Msgs: []interface{}{ack, &core.Replies{Msgs: []interface{}{ack}}}},
	} {
		frame, err := codec.Encode(nil, &Envelope{From: 1, To: 2, Msg: msg})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// Unknown kind with trailing payload (forward-compat path).
	unknown := []byte{transport.FrameBinary}
	unknown = appendU16(unknown, 500)
	unknown = appendU64(unknown, 1)
	unknown = appendU64(unknown, 2)
	unknown = appendStr(unknown, "addr")
	f.Add(append(unknown, 1, 2, 3))
	f.Add([]byte{})
	f.Add([]byte{transport.FrameBinary})
	f.Add([]byte{0xff, 0x00})
	f.Add([]byte{0x00, 0x01, 0x00, 0x2a})

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := codec.Decode(data)
		if err != nil {
			return
		}
		if env == nil {
			t.Fatal("nil envelope with nil error")
		}
		if env.Msg == nil {
			t.Fatal("decoded envelope has nil message")
		}
		// Whatever decoded must re-encode: a decoded message is always
		// a table message (or Unknown, which is not re-encodable and
		// is exempt).
		if _, isUnknown := env.Msg.(Unknown); isUnknown {
			return
		}
		if _, err := codec.Encode(nil, env); err != nil {
			t.Fatalf("decoded message %T does not re-encode: %v", env.Msg, err)
		}
	})
}
