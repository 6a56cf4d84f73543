package dataflasks

import "dataflasks/internal/transport"

// DirectoryMembers returns the members c's slice directory knows for
// slice (nil on a closed client).
func DirectoryMembers(c *Client, slice int32) []NodeID {
	return onLoop(c, func() []NodeID { return c.core.DirectoryMembers(slice) })
}

// FabricStats returns the counters of c's own TCP fabric.
func FabricStats(c *Client) transport.Stats { return c.fabric.Stats() }

// ParkLoop parks c's loop inside one command until release is called,
// so that what is submitted meanwhile queues up for the loop's next turn.
func ParkLoop(c *Client) (release func()) {
	parked, gate := make(chan struct{}), make(chan struct{})
	if c.submit(func() { close(parked); <-gate }) == nil {
		<-parked
	}
	return func() { close(gate) }
}
