// Package wire defines the on-the-wire representation for real (TCP)
// deployments. Simulated and in-process fabrics skip encoding
// entirely and pass message pointers; everything that crosses a real
// socket is a frame produced by BinaryCodec.
//
// The protocol surface is declared once, in Messages: every message a
// node may emit or receive — PSS shuffles, slicing swaps, aggregation,
// anti-entropy (the Reconcile descent, pulls, pushes),
// the data plane (puts/gets/deletes and their batch and ack forms, and
// the answer batch — core.Replies, one shard's acks and get replies to
// one client as one frame, which nests only those five answer kinds),
// mate discovery, and the DHT baseline — with a stable kind ID. The
// codec is derived from that one table: adding a protocol message
// means adding a table entry, and forgetting draws an encode error on
// the sending node rather than silent misbehavior.
//
// There is one format: hand-rolled length-delimited fields behind a
// frame version byte and the table's kind IDs. Encode appends into a
// caller-owned buffer and allocates nothing once the buffer has warmed
// up, which is what the hot paths (relay puts, digests, pushes) want.
// The format evolves two ways only: a trailing optional field on a
// message whose last field allows it (TraceID, then Flood), or a new
// version byte, which decoders that do not know it reject. Nodes that
// do not know a kind receive it as Unknown and ignore it, so
// mixed-version deployments degrade instead of crashing.
package wire

import "dataflasks/internal/transport"

// Envelope is the wire frame: the logical envelope plus the sender's
// dialable address, which lets receivers answer nodes they have never
// dialed. It is the transport layer's WireEnvelope; the alias keeps
// protocol code out of the transport package's namespace.
type Envelope = transport.WireEnvelope

// Codec turns envelopes into frames and back; BinaryCodec is the
// implementation.
type Codec = transport.WireCodec

// Unknown stands in for a decoded message whose kind this build does
// not know (a newer peer's message). The node dispatch ignores it via
// its default case, so mixed-version deployments degrade instead of
// crashing.
type Unknown struct {
	Kind uint16
}

// KindOf returns the stable kind ID for msg (ok=false for types
// outside the message table).
func KindOf(msg interface{}) (uint16, bool) {
	if s := specOf(msg); s != nil {
		return s.Kind, true
	}
	return 0, false
}
