// TCP cluster: real sockets on localhost — the same protocol stack the
// simulations run, but over length-prefixed binary frames on TCP
// streams with a gossiped address directory.
//
//	go run ./examples/tcpcluster
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dataflasks"
)

func main() {
	const n = 10
	cfg := dataflasks.Config{Slices: 2, SystemSize: n}

	fmt.Printf("starting %d TCP nodes on 127.0.0.1...\n", n)
	nodes := make([]*dataflasks.Node, 0, n)
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()

	first, err := dataflasks.StartNode(dataflasks.NodeConfig{
		ID:          1,
		Bind:        "127.0.0.1:0",
		Config:      cfg,
		RoundPeriod: 50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	nodes = append(nodes, first)
	seed := fmt.Sprintf("1@%s", first.Addr())
	fmt.Printf("  node 1 @ %s (seed)\n", first.Addr())

	for i := 2; i <= n; i++ {
		nd, err := dataflasks.StartNode(dataflasks.NodeConfig{
			ID:          dataflasks.NodeID(i),
			Bind:        "127.0.0.1:0",
			Seeds:       []string{seed},
			Config:      cfg,
			RoundPeriod: 50 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		nodes = append(nodes, nd)
	}

	fmt.Println("gossiping addresses and slices...")
	time.Sleep(3 * time.Second)
	for _, nd := range nodes {
		fmt.Printf("  node %s: slice=%d peers-known=%d\n", nd.ID(), nd.Slice(), nd.PeersKnown())
	}

	client, err := dataflasks.ConnectClient("127.0.0.1:0", []string{seed}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := client.Put(ctx, "wire", 1, []byte("hello over TCP")); err != nil {
		log.Fatal(err)
	}
	value, version, err := client.GetLatest(ctx, "wire")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back: %q (v%d)\n", value, version)

	stored := 0
	for _, nd := range nodes {
		stored += nd.StoredObjects()
	}
	fmt.Printf("object copies across the cluster: %d\n", stored)
}
