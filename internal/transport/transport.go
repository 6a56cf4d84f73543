// Package transport defines how DataFlasks nodes exchange messages and
// provides four interchangeable fabrics: a deterministic simulated
// network driven by the discrete-event engine, an in-process network
// for live goroutine clusters, a TCP network for real deployments, and a
// UDP datagram path for the loss-tolerant epidemic control plane. Every
// fabric implements the same context-taking Send(ctx, to, env) signature
// (the Fabric interface) and hands what arrives to the handler its
// recipient attached or listened with — none owns a mailbox; queueing,
// and dropping what does not fit, is the recipient's. Protocol code
// depends only on the narrow Sender interface bound to one originating
// node, so the same node logic runs unchanged on all fabrics.
//
// The two socket fabrics share one wire format, supplied as a
// WireCodec: a TCP stream is a sequence of length-prefixed frames and a
// datagram is exactly one frame. There is no per-connection handshake.
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
}

// Fabric is the unified send surface every transport implements: one
// context-taking signature shared by the simulated, channel, TCP and
// UDP fabrics. Send is best-effort — epidemic protocols tolerate loss,
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

// FallbackSender tries primary and, when it fails, retries the same
// message on fallback. The canonical use is the control-plane split: a
// datagram path as primary (oversize frames or missing peer addresses
// fail fast) with the TCP stream path as the always-works fallback.
func FallbackSender(primary, fallback Sender) Sender {
	return SenderFunc(func(ctx context.Context, to NodeID, msg interface{}) error {
		if err := primary.Send(ctx, to, msg); err != nil {
			return fallback.Send(ctx, to, msg)
		}
		return nil
	})
}

// AddressBook lets protocol layers feed learned (id → address)
// mappings to fabrics that need them (TCP, UDP). Simulated fabrics
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
	// ErrOversize reports a frame too large for the datagram path; the
	// caller should retry on a stream fabric (FallbackSender does).
	ErrOversize = errors.New("transport: frame exceeds datagram size cap")
	// ErrNoDatagramPath reports a peer whose datagram path is unproven
	// (no probe ack yet — possibly a node with no UDP listener at all);
	// the caller should retry on a stream fabric (FallbackSender does).
	ErrNoDatagramPath = errors.New("transport: no proven datagram path")
)

// Stats aggregates fabric-level delivery accounting.
type Stats struct {
	Sent      uint64 // messages accepted for delivery
	Delivered uint64 // messages handed to a handler
	Dropped   uint64 // messages lost (loss model, dead or unknown peer, cancelled send)
}
