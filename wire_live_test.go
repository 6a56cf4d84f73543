package dataflasks_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dataflasks"
)

// startWireCluster boots n TCP nodes where udpFor picks each node's
// datagram bind ("" disables), returning the nodes and the seed
// contact string.
func startWireCluster(t *testing.T, n int, cfg dataflasks.Config, udpFor func(i int) string) ([]*dataflasks.Node, string) {
	t.Helper()
	nodes := make([]*dataflasks.Node, 0, n)
	t.Cleanup(func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	})
	seed := ""
	for i := 1; i <= n; i++ {
		nodeCfg := dataflasks.NodeConfig{
			ID: dataflasks.NodeID(i), Bind: "127.0.0.1:0",
			RoundPeriod: 30 * time.Millisecond,
			UDPBind:     udpFor(i),
			Config:      cfg,
		}
		if seed != "" {
			nodeCfg.Seeds = []string{seed}
		}
		nd, err := dataflasks.StartNode(nodeCfg)
		if err != nil {
			t.Fatalf("StartNode %d: %v", i, err)
		}
		nodes = append(nodes, nd)
		if seed == "" {
			seed = fmt.Sprintf("1@%s", nd.Addr())
		}
	}
	return nodes, seed
}

// exerciseCluster waits for membership, round-trips a write through a
// client, and requires the object to replicate beyond one node.
func exerciseCluster(t *testing.T, nodes []*dataflasks.Node, seed string, cfg dataflasks.Config, key string) {
	t.Helper()
	n := len(nodes)
	time.Sleep(2 * time.Second)
	for _, nd := range nodes {
		if nd.PeersKnown() < n/2 {
			t.Errorf("node %s knows only %d peers", nd.ID(), nd.PeersKnown())
		}
	}

	cl, err := dataflasks.ConnectClient("127.0.0.1:0", []string{seed}, cfg)
	if err != nil {
		t.Fatalf("ConnectClient: %v", err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cl.Put(ctx, key, 1, []byte("interop payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := cl.Get(ctx, key, 1)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got) != "interop payload" {
		t.Fatalf("Get = %q", got)
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		total := 0
		for _, nd := range nodes {
			total += nd.StoredObjects()
		}
		if total >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("object stored on %d nodes total, want >= 2", total)
			return
		}
		time.Sleep(30 * time.Millisecond)
	}
}

// TestUDPControlPlaneCluster runs a cluster with the datagram control
// plane enabled on every node: gossip control traffic rides UDP
// frames on the TCP port, and the cluster still converges and serves
// writes (which stay on TCP).
func TestUDPControlPlaneCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster in -short mode")
	}
	const n = 6
	cfg := dataflasks.Config{Slices: 2, SystemSize: n, Seed: 17}
	nodes, seed := startWireCluster(t, n, cfg, func(int) string { return "auto" })
	for _, nd := range nodes {
		if nd.UDPAddr() == "" {
			t.Fatalf("node %s has no datagram listener", nd.ID())
		}
	}
	exerciseCluster(t, nodes, seed, cfg, "udp-control-key")

	sent := uint64(0)
	for _, nd := range nodes {
		sent += nd.WireStats().UDPSent
	}
	if sent == 0 {
		t.Error("control plane never used the datagram path")
	}
}

// TestPartialUDPClusterConverges is the rolling-enablement trap: the
// seed has NO datagram listener (no -udp-addr) while the rest run with
// UDP enabled. Datagrams to the seed vanish into a closed port,
// so without probe-gated datagram paths the bootstrap shuffle is lost
// and membership never forms — the probe handshake must keep control
// traffic to the seed on TCP while UDP-capable pairs still use
// datagrams with each other.
func TestPartialUDPClusterConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster in -short mode")
	}
	const n = 6
	cfg := dataflasks.Config{Slices: 2, SystemSize: n, Seed: 23}
	nodes, seed := startWireCluster(t, n, cfg, func(i int) string {
		if i == 1 {
			return ""
		}
		return "auto"
	})
	exerciseCluster(t, nodes, seed, cfg, "partial-udp-key")

	sent := uint64(0)
	for _, nd := range nodes[1:] {
		sent += nd.WireStats().UDPSent
	}
	if sent == 0 {
		t.Error("UDP-capable pairs never used the datagram path")
	}
}
