package pss

import "errors"

// Errors reported by view invariant checks.
var (
	errSelfInView      = errors.New("pss: view contains self")
	errDuplicateInView = errors.New("pss: view contains duplicate")
)

// SelfInfo supplies the caller's current slicing attribute and slice
// claim, stamped into every self-descriptor the protocol emits.
type SelfInfo func() (attr float64, slice int32)

// Observer receives every remote descriptor learned through gossip: the
// uniform random node stream that upper protocols (slicing, discovery)
// consume.
type Observer func(Descriptor)

// ShuffleRequest initiates a Cyclon exchange: Sample carries a random
// subset of the initiator's view plus a fresh self-descriptor.
type ShuffleRequest struct {
	Sample []Descriptor
}

// ShuffleReply answers a ShuffleRequest with the receiver's sample.
type ShuffleReply struct {
	Sample []Descriptor
}
