// RESP gateway: serve a DataFlasks cluster to any Redis client. This
// example boots a single-node deployment with the gateway attached
// (exactly what `flasksd -resp-addr` does) and then talks to it with
// nothing but a plain net.Conn — no Redis library, just the RESP bytes
// any off-the-shelf client would send.
//
//	go run ./examples/resp
package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"dataflasks"
	"dataflasks/internal/metrics"
	"dataflasks/internal/resp"
)

func main() {
	// One node, one slice, static slicer: a singleton that serves every
	// key immediately (a lone node has no gossip stream to rank-slice
	// from).
	cfg := dataflasks.Config{Slices: 1, Slicer: dataflasks.StaticSlicer, SystemSize: 1}
	node, err := dataflasks.StartNode(dataflasks.NodeConfig{
		ID:          1,
		Bind:        "127.0.0.1:0",
		RoundPeriod: 50 * time.Millisecond,
		Config:      cfg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()

	// The gateway dispatches every RESP command through one shared
	// future-based client, so pipelined commands overlap. The client
	// lives in the node's process: it reaches this node by function call
	// and would reach any other over a TCP fabric of its own.
	cl, err := node.NewClient(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	gw := resp.NewServer(cl, resp.Config{Stats: metrics.NewCommandStats()})
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()
	fmt.Printf("RESP gateway on %s — try: redis-cli -p %d\n", addr, addr.(*net.TCPAddr).AddrPort().Port())

	// A plain TCP connection speaking raw RESP. Everything below is
	// what redis-cli would put on the wire for:
	//   SET greeting "hello from RESP"
	//   GET greeting
	//   DEL greeting
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	// Pipelined: all three commands go out in one write; the replies
	// come back in order.
	payload := "hello from RESP"
	pipeline := fmt.Sprintf("*3\r\n$3\r\nSET\r\n$8\r\ngreeting\r\n$%d\r\n%s\r\n", len(payload), payload) +
		"*2\r\n$3\r\nGET\r\n$8\r\ngreeting\r\n" +
		"*2\r\n$3\r\nDEL\r\n$8\r\ngreeting\r\n"
	if _, err := conn.Write([]byte(pipeline)); err != nil {
		log.Fatal(err)
	}

	br := bufio.NewReader(conn)
	for _, cmd := range []string{"SET", "GET", "DEL"} {
		line, err := br.ReadString('\n')
		if err != nil {
			log.Fatal(err)
		}
		switch line[0] {
		case '$': // bulk: the value follows
			var n int
			fmt.Sscanf(line, "$%d", &n)
			value := make([]byte, n+2)
			if _, err := io.ReadFull(br, value); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-4s → %q\n", cmd, value[:n])
		default: // +OK, :1, -ERR ...
			fmt.Printf("%-4s → %s", cmd, line)
		}
	}

	// The inline form works too (this is what typing into telnet sends).
	if _, err := conn.Write([]byte("PING\r\n")); err != nil {
		log.Fatal(err)
	}
	pong, err := br.ReadString('\n')
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PING → %s", pong)
}
