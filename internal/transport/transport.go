// Package transport defines how DataFlasks nodes exchange messages and
// provides three interchangeable fabrics: a deterministic simulated
// network driven by the discrete-event engine, an in-process network
// for live goroutine clusters, and a TCP network for real deployments,
// which carries every protocol's traffic. Every fabric implements the
// same context-taking Send(ctx, to, env) signature (the Fabric
// interface) and hands what arrives to the handler its recipient
// attached or listened with — none owns a mailbox; queueing,
// and dropping what does not fit, is the recipient's. Protocol code
// depends only on the narrow Sender interface bound to one originating
// node, so the same node logic runs unchanged on all fabrics.
//
// Every fabric carries encoded frames. Each is built with a WireCodec
// (the wire package's BinaryCodec): the TCP fabric writes a stream of
// length-prefixed frames, with no per-connection handshake, and the
// simulated and in-process fabrics encode each message and hand the
// receiver the decoded copy. So no receiver shares a sender's value,
// a message the codec cannot carry fails wherever it is first sent,
// and every delivered Envelope carries its frame length in Bytes.
package transport

import (
	"context"
	"errors"
	"strconv"
)

// NodeID identifies a node (or a client endpoint) in the system.
// IDs are opaque to the protocols; uniqueness is the deployer's job.
type NodeID uint64

// String formats the id as the paper's evaluation tables do ("n42").
func (id NodeID) String() string { return "n" + strconv.FormatUint(uint64(id), 10) }

// Envelope is one addressed protocol message in flight.
type Envelope struct {
	From NodeID
	To   NodeID
	Msg  interface{}
	// Bytes is the length of the encoded frame the message arrived as,
	// set by every fabric on delivery.
	Bytes int
	// Last is set by the TCP fabric when no further frame of the stream
	// this one arrived on was already read: nothing behind it waits for
	// its handler to return. Every other fabric leaves it false.
	Last bool
	// Paced is set by the TCP fabric on a Last frame of a stream whose
	// previous 64 frames (pacedAfter) each arrived Last too: its sender
	// writes one frame and waits for the answer before the next, so
	// holding its handler stops nothing queued behind it. Every other
	// fabric leaves it false.
	Paced bool
}

// Fabric is the unified send surface every transport implements: one
// context-taking signature shared by the simulated, channel and TCP
// fabrics. Send is best-effort — epidemic protocols tolerate loss,
// so failures surface as an error for accounting but never block
// beyond ctx.
type Fabric interface {
	Send(ctx context.Context, to NodeID, env Envelope) error
}

// Sender lets one node emit messages. It is the protocol-facing
// narrowing of Fabric: the originating node is bound in, so protocol
// code only names the destination. Send is best-effort, like
// Fabric.Send.
type Sender interface {
	Send(ctx context.Context, to NodeID, msg interface{}) error
}

// SenderFunc adapts a function to the Sender interface.
type SenderFunc func(ctx context.Context, to NodeID, msg interface{}) error

// Send implements Sender.
func (f SenderFunc) Send(ctx context.Context, to NodeID, msg interface{}) error {
	return f(ctx, to, msg)
}

// BindSender narrows a fabric to one originating node. All fabrics
// hand out senders through this single helper, so the per-fabric
// sender construction cannot drift.
func BindSender(f Fabric, from NodeID) Sender {
	return SenderFunc(func(ctx context.Context, to NodeID, msg interface{}) error {
		return f.Send(ctx, to, Envelope{From: from, To: to, Msg: msg})
	})
}

// AddressBook lets protocol layers feed learned (id → address)
// mappings to fabrics that need them (TCP). Simulated fabrics
// ignore addresses entirely.
type AddressBook interface {
	// Learn records that id is reachable at addr. Implementations must
	// be safe for concurrent use and tolerate re-learning.
	Learn(id NodeID, addr string)
}

// WireEnvelope is the frame crossing real networks: the logical
// envelope plus the sender's dialable address, which lets receivers
// answer nodes they have never dialed.
type WireEnvelope struct {
	From     NodeID
	FromAddr string
	To       NodeID
	Msg      interface{}
}

// FrameBinary is the version byte that opens every encoded frame. It
// is the wire format's one evolution lever besides trailing optional
// fields: an incompatible layout takes a new value, and decoders reject
// versions they do not know.
const FrameBinary byte = 1

// WireCodec turns envelopes into frames and back. The wire package
// provides the implementation; the transport layer only moves frames,
// and tests and tracing harnesses decorate the codec through this seam.
type WireCodec interface {
	// Encode appends env as one frame to buf and returns the extended
	// slice (reuse buffers for zero-allocation sends).
	Encode(buf []byte, env *WireEnvelope) ([]byte, error)
	// Decode parses one frame (the whole slice).
	Decode(data []byte) (*WireEnvelope, error)
}

// carry is what the simulated and in-process fabrics do in place of a
// socket: encode env as the frame TCP would write, into buf, and return
// the receiver's decoded copy stamped with the frame length, plus buf
// for reuse. The receiver never shares the sender's value. A codec error
// panics: a message the wire cannot carry is a bug, not a loss.
func carry(codec WireCodec, buf []byte, env Envelope) (Envelope, []byte) {
	buf, err := codec.Encode(buf[:0], &WireEnvelope{From: env.From, To: env.To, Msg: env.Msg})
	if err != nil {
		panic(err)
	}
	got, err := codec.Decode(buf)
	if err != nil {
		panic(err)
	}
	return Envelope{From: got.From, To: got.To, Msg: got.Msg, Bytes: len(buf)}, buf
}

// Common delivery errors.
var (
	// ErrUnknownPeer reports a destination that is not registered.
	ErrUnknownPeer = errors.New("transport: unknown peer")
	// ErrPeerDown reports a destination that is registered but stopped.
	ErrPeerDown = errors.New("transport: peer down")
	// ErrDropped reports a message dropped by loss injection, a
	// partition or a failed socket write.
	ErrDropped = errors.New("transport: message dropped")
	// ErrClosed reports use of a closed endpoint or network.
	ErrClosed = errors.New("transport: closed")
)

// Stats aggregates fabric-level delivery accounting.
type Stats struct {
	Sent      uint64 // messages accepted for delivery
	Delivered uint64 // messages handed to a handler
	Dropped   uint64 // messages lost (loss model, dead or unknown peer, cancelled send)
	Writes    uint64 // socket writes made (TCP only): each carries one frame, or a held turn's frames for one peer
}
