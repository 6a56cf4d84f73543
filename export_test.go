package dataflasks

// DirectoryMembers returns the members c's slice directory knows for
// slice (nil on a closed client).
func DirectoryMembers(c *Client, slice int32) []NodeID {
	return onLoop(c, func() []NodeID { return c.core.DirectoryMembers(slice) })
}
