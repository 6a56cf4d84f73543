// Command flasksd runs one DataFlasks node on TCP.
//
// A three-node cluster on one machine:
//
//	flasksd -id 1 -bind 127.0.0.1:7001 &
//	flasksd -id 2 -bind 127.0.0.1:7002 -seeds 1@127.0.0.1:7001 &
//	flasksd -id 3 -bind 127.0.0.1:7003 -seeds 1@127.0.0.1:7001 &
//
// Then talk to it with flaskctl — or any Redis client, via the RESP
// gateway:
//
//	flasksd -id 1 -bind 127.0.0.1:7001 -resp-addr 127.0.0.1:6379
//	redis-cli -p 6379 set greeting "hello"
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dataflasks"
	"dataflasks/internal/metrics"
	"dataflasks/internal/resp"
)

func main() {
	var (
		id         = flag.Uint64("id", 0, "unique node id in [1, 2^32) (required)")
		bind       = flag.String("bind", "127.0.0.1:0", "listen address")
		advertise  = flag.String("advertise", "", "address peers dial (default: bind)")
		seeds      = flag.String("seeds", "", "comma-separated bootstrap contacts, each id@host:port")
		dataDir    = flag.String("data", "", "object directory (empty: in-memory)")
		engine     = flag.String("engine", "log", "persistence engine with -data: log or memory")
		fsync      = flag.Bool("fsync", true, "block writes until durable (log engine group-commits)")
		segBytes   = flag.Int64("segment-bytes", 0, "log segment roll size (0: 64 MiB default)")
		compact    = flag.Float64("compact-live", 0, "compact sealed log segments below this live ratio (0: 0.5 default, <0 disables)")
		compactBw  = flag.Int64("compact-rate", 0, "log compaction copy throughput cap in bytes/sec (0: unlimited)")
		slices     = flag.Int("slices", 10, "number of slices k")
		slicer     = flag.String("slicer", "rank", "slice manager: rank, swap or static (static decides instantly; required for single-node deployments)")
		size       = flag.Int("system-size", 0, "expected cluster size N (0: gossip-estimated)")
		capacity   = flag.Float64("capacity", 0, "slicing attribute, e.g. free GB (0: derived from id)")
		period     = flag.Duration("period", 500*time.Millisecond, "gossip round period")
		dataShards = flag.Int("data-shards", 0, "data-plane shard goroutines, partitioned by key hash (0 or 1: single shard; raise on multi-core hosts)")
		status     = flag.Duration("status", 10*time.Second, "status line interval (0: quiet)")
		udpAddr    = flag.String("udp-addr", "", "datagram control-plane bind address; must share -bind's port, or \"auto\" to derive it (empty: all traffic on TCP)")

		aePushBytes = flag.Int("ae-push-bytes", 0, "value bytes per anti-entropy repair push (0: 1 MiB default)")
		aeRate      = flag.Int("ae-rate", 0, "repair push bytes allowed per anti-entropy round, token bucket (0: unlimited)")
		aeFullEvery = flag.Int("ae-full-every", 0, "full-header repair round cadence; other rounds send Bloom summaries (0: 8 default; 1: always full headers)")

		bootstrap     = flag.Bool("bootstrap", false, "bulk-recover this node's slice data at startup by streaming sealed segments from a slice-mate")
		bootstrapRate = flag.Int("bootstrap-rate", 0, "segment bytes streamed to joiners per gossip round, token bucket (0: 1 MiB default, <0 unlimited)")
		restoreDir    = flag.String("restore", "", "replay a flaskctl snapshot directory into the store before starting (empty: none)")

		respAddr     = flag.String("resp-addr", "", "serve the cluster to Redis clients on this address (empty: disabled)")
		respInflight = flag.Int("resp-inflight", 0, "max pipelined RESP commands in flight per connection (0: 128 default)")
		respGetWait  = flag.Duration("resp-get-timeout", 0, "RESP read attempt budget; a missing key answers null after ~2x this (0: 2s default)")

		httpAddr    = flag.String("http-addr", "", "serve the observability plane (/metrics, /healthz, /readyz, /trace, /debug/pprof/) on this address (empty: disabled)")
		traceEvents = flag.Int("trace-events", 0, "size of the /trace event ring (0: 1024 default, <0 disables tracing)")
	)
	flag.Parse()

	if *id == 0 {
		fmt.Fprintln(os.Stderr, "flasksd: -id is required")
		flag.Usage()
		os.Exit(2)
	}
	var seedList []string
	if *seeds != "" {
		seedList = strings.Split(*seeds, ",")
	}
	var slicerKind dataflasks.Slicer
	switch *slicer {
	case "rank":
		slicerKind = dataflasks.RankSlicer
	case "swap":
		slicerKind = dataflasks.SwapSlicer
	case "static":
		slicerKind = dataflasks.StaticSlicer
	default:
		fmt.Fprintf(os.Stderr, "flasksd: unknown -slicer %q (want rank, swap or static)\n", *slicer)
		os.Exit(2)
	}
	var engineKind dataflasks.Engine
	switch *engine {
	case "log":
		engineKind = dataflasks.LogEngine
	case "memory":
		engineKind = dataflasks.MemoryEngine
	default:
		fmt.Fprintf(os.Stderr, "flasksd: unknown -engine %q (want log or memory)\n", *engine)
		os.Exit(2)
	}

	cfg := dataflasks.Config{
		Slices:                 *slices,
		Slicer:                 slicerKind,
		SystemSize:             *size,
		Capacity:               *capacity,
		Engine:                 engineKind,
		Fsync:                  *fsync,
		SegmentMaxBytes:        *segBytes,
		CompactLiveRatio:       *compact,
		CompactRateBytesPerSec: *compactBw,
		MaxPushBytes:           *aePushBytes,
		RepairRateBytes:        *aeRate,
		BloomFullEvery:         *aeFullEvery,
		Bootstrap:              *bootstrap,
		BootstrapRateBytes:     *bootstrapRate,
		DataShards:             *dataShards,
	}
	// The gateway's per-command stats registry is created up front so
	// the observability plane (which starts with the node) can export
	// it; the gateway itself starts after the node its client lives in.
	var respStats *metrics.CommandStats
	if *respAddr != "" {
		respStats = metrics.NewCommandStats()
	}
	node, err := dataflasks.StartNode(dataflasks.NodeConfig{
		ID:          dataflasks.NodeID(*id),
		Bind:        *bind,
		Advertise:   *advertise,
		Seeds:       seedList,
		DataDir:     *dataDir,
		RestoreDir:  *restoreDir,
		RoundPeriod: *period,
		UDPBind:     *udpAddr,
		HTTPAddr:    *httpAddr,
		TraceEvents: *traceEvents,
		RESPStats:   respStats,
		Config:      cfg,
	})
	if err != nil {
		log.Fatalf("flasksd: %v", err)
	}
	log.Printf("flasksd: node %s listening on %s (slices=%d)", node.ID(), node.Addr(), *slices)
	if ua := node.UDPAddr(); ua != "" {
		log.Printf("flasksd: datagram control plane on %s", ua)
	}
	if ha := node.HTTPAddr(); ha != "" {
		log.Printf("flasksd: observability plane listening on %s", ha)
	}

	// The RESP gateway serves Redis clients through one shared
	// DataFlasks client that lives in this node's process: commands for
	// keys of the node's own slice reach it by function call, everything
	// else takes the client's own fabric to the other nodes, as a remote
	// client's requests would.
	var (
		gateway *resp.Server
		cl      *dataflasks.Client
	)
	if *respAddr != "" {
		cl, err = node.NewClient(cfg)
		if err != nil {
			log.Fatalf("flasksd: resp gateway client: %v", err)
		}
		gateway = resp.NewServer(cl, resp.Config{
			MaxInflight: *respInflight,
			GetTimeout:  *respGetWait,
			Stats:       respStats,
			Logf:        log.Printf,
		})
		addr, err := gateway.Listen(*respAddr)
		if err != nil {
			log.Fatalf("flasksd: %v", err)
		}
		log.Printf("flasksd: resp gateway listening on %s", addr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	if *status > 0 {
		ticker := time.NewTicker(*status)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				log.Printf("flasksd: slice=%d peers=%d objects=%d dropped=%d send_errors=%d",
					node.Slice(), node.PeersKnown(), node.StoredObjects(), node.MailboxDropped(), node.SendErrors())
				ws := node.WireStats()
				log.Printf("flasksd: wire encode_bytes=%d udp sent=%d dropped=%d oversize=%d",
					ws.EncodeBytes, ws.UDPSent, ws.UDPDropped, ws.UDPOversize)
				if bs := node.BootstrapStats(); *bootstrap || bs.Sent > 0 {
					log.Printf("flasksd: bootstrap done=%t fellback=%t sent=%d segments=%d bytes=%d rejected=%d fallback_objects=%d",
						bs.Done, bs.FellBack, bs.Sent, bs.Segments, bs.Bytes, bs.ChunksRejected, bs.FallbackObjects)
				}
				if gateway != nil {
					calls, errs := respStats.Totals()
					log.Printf("flasksd: resp conns=%d cmds=%d errors=%d p50=%s p99=%s",
						gateway.Conns(), calls, errs,
						respStats.Quantile(0.50), respStats.Quantile(0.99))
				}
			case <-stop:
				shutdown(node, gateway, cl)
				return
			}
		}
	}
	<-stop
	shutdown(node, gateway, cl)
}

// shutdown closes things in the reverse of the order they were started:
// the gateway, its client, the node. A RESP command in flight fails at
// once with the client's closed error instead of being dispatched into a
// node that has stopped.
func shutdown(node *dataflasks.Node, gateway *resp.Server, cl *dataflasks.Client) {
	log.Printf("flasksd: shutting down")
	if gateway != nil {
		_ = gateway.Close()
		cl.Close()
	}
	if err := node.Close(); err != nil {
		log.Printf("flasksd: close: %v", err)
	}
}
