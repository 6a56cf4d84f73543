// Command flaskctl is the CLI client for a DataFlasks deployment.
//
//	flaskctl -seeds 1@127.0.0.1:7001 ping
//	flaskctl -seeds 1@127.0.0.1:7001 put greeting 1 "hello world"
//	flaskctl -seeds 1@127.0.0.1:7001 get greeting
//	flaskctl -seeds 1@127.0.0.1:7001 get greeting 1
//	flaskctl -seeds 1@127.0.0.1:7001 del greeting
//	flaskctl -seeds 1@127.0.0.1:7001 del greeting 1
//	flaskctl -seeds 1@127.0.0.1:7001 bench -ops 1000 -mode pipeline
//	flaskctl -seeds 1@127.0.0.1:7001 snapshot ./backup
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"time"

	"dataflasks"
)

func main() {
	var (
		seeds   = flag.String("seeds", "", "comma-separated contacts, each id@host:port (required)")
		slices  = flag.Int("slices", 10, "cluster slice count (must match the deployment)")
		timeout = flag.Duration("timeout", 30*time.Second, "per-operation timeout")
		trace   = flag.Uint64("trace", 0, "stamp data operations with this trace id (inspect with: flaskctl trace <http-addr> <id>)")
	)
	flag.Parse()

	if flag.NArg() == 0 {
		usage()
	}
	args := flag.Args()
	switch args[0] {
	case "stats":
		// stats and trace scrape a node's observability plane over
		// plain HTTP; they need its -http-addr, not the epidemic client
		// or any seeds.
		if len(args) != 2 {
			usage()
		}
		runStats(args[1], *timeout)
		return
	case "trace":
		if len(args) != 2 && len(args) != 3 {
			usage()
		}
		traceID := ""
		if len(args) == 3 {
			traceID = args[2]
		}
		runTrace(args[1], traceID, *timeout)
		return
	}
	if *seeds == "" {
		usage()
	}
	if args[0] == "snapshot" {
		// Snapshots talk the segment-streaming protocol directly to one
		// node; they do not need the epidemic client.
		if len(args) != 2 {
			usage()
		}
		runSnapshot(strings.Split(*seeds, ",")[0], args[1], *timeout)
		return
	}
	cl, err := dataflasks.ConnectClient("127.0.0.1:0", strings.Split(*seeds, ","), dataflasks.Config{Slices: *slices})
	if err != nil {
		fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var opts []dataflasks.OpOption
	if *trace != 0 {
		opts = append(opts, dataflasks.WithTraceID(*trace))
	}

	switch args[0] {
	case "ping":
		if len(args) != 1 {
			usage()
		}
		runPing(cl, *seeds, *timeout)
	case "put":
		if len(args) != 4 {
			usage()
		}
		version := parseVersion(args[2])
		if err := cl.Put(ctx, args[1], version, []byte(args[3]), opts...); err != nil {
			fatal(err)
		}
		fmt.Printf("OK %s v%d (%d bytes)\n", args[1], version, len(args[3]))
	case "get":
		switch len(args) {
		case 2:
			value, version, err := cl.GetLatest(ctx, args[1], opts...)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s v%d: %s\n", args[1], version, value)
		case 3:
			version := parseVersion(args[2])
			value, err := cl.Get(ctx, args[1], version, opts...)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s v%d: %s\n", args[1], version, value)
		default:
			usage()
		}
	case "del":
		switch len(args) {
		case 2:
			// No version: delete each replica's newest stored version.
			if err := cl.Delete(ctx, args[1], dataflasks.Latest, opts...); err != nil {
				fatal(err)
			}
			fmt.Printf("DELETED %s (latest)\n", args[1])
		case 3:
			version := parseVersion(args[2])
			if err := cl.Delete(ctx, args[1], version, opts...); err != nil {
				fatal(err)
			}
			fmt.Printf("DELETED %s v%d\n", args[1], version)
		default:
			usage()
		}
	case "bench":
		benchFlags := flag.NewFlagSet("bench", flag.ExitOnError)
		ops := benchFlags.Int("ops", 100, "operations to run")
		mode := benchFlags.String("mode", "blocking", "write shape: blocking, pipeline or batch")
		acks := benchFlags.Int("acks", 1, "replica acks per write")
		_ = benchFlags.Parse(args[1:])
		runBench(cl, *ops, *mode, *acks, *timeout)
	default:
		usage()
	}
}

// runPing round-trips one throwaway object through the cluster via the
// public client — a write must reach a replica and its ack must come
// back, so success proves the seeds are dialable AND the epidemic data
// path works. The probe is deleted afterwards (best effort).
func runPing(cl *dataflasks.Client, seeds string, timeout time.Duration) {
	key := fmt.Sprintf("__flaskctl/ping/%08x", rand.Uint32())
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	if err := cl.Put(ctx, key, 1, []byte("ping")); err != nil {
		fmt.Fprintf(os.Stderr, "flaskctl: ping failed: no reply from the cluster via -seeds %s\n", seeds)
		fmt.Fprintf(os.Stderr, "  check that flasksd is running on the seed addresses and that they are reachable\n")
		fmt.Fprintf(os.Stderr, "  (%v)\n", err)
		os.Exit(1)
	}
	rtt := time.Since(start)
	_ = cl.Delete(ctx, key, 1)
	fmt.Printf("PONG in %s (write acknowledged by a replica)\n", rtt.Round(100*time.Microsecond))
}

// runSnapshot downloads one node's sealed segments into dir as a
// restorable snapshot, printing per-segment progress.
func runSnapshot(seed, dir string, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	var lastSeg uint64
	sawSeg := false
	res, err := dataflasks.DownloadSnapshot(ctx, seed, dir, func(segment uint64, bytes int64) {
		if !sawSeg || segment != lastSeg {
			sawSeg = true
			lastSeg = segment
			fmt.Printf("  segment %d...\n", segment)
		}
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("SNAPSHOT %s: %d segments, %d bytes in %s (restore with flasksd -restore %s)\n",
		dir, res.Segments, res.Bytes, time.Since(start).Round(time.Millisecond), dir)
}

func parseVersion(s string) uint64 {
	version, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		fatal(fmt.Errorf("bad version %q: %w", s, err))
	}
	return version
}

// runBench drives ops puts in the requested shape. The three modes
// share payloads and ack level, so their throughputs are comparable:
// blocking waits out each op before issuing the next, pipeline keeps
// every future in flight at once, batch ships per-slice
// PutBatchRequest messages.
func runBench(cl *dataflasks.Client, ops int, mode string, acks int, timeout time.Duration) {
	const payload = "benchmark-payload"
	opt := []dataflasks.OpOption{dataflasks.WithAcks(acks)}
	key := func(i int) string { return fmt.Sprintf("bench%06d", i) }
	fails := 0
	start := time.Now()
	switch mode {
	case "blocking":
		for i := 0; i < ops; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			if err := cl.Put(ctx, key(i), 1, []byte(payload), opt...); err != nil {
				fails++
			}
			cancel()
		}
	case "pipeline":
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		futures := make([]*dataflasks.Op, 0, ops)
		for i := 0; i < ops; i++ {
			futures = append(futures, cl.PutAsync(key(i), 1, []byte(payload), opt...))
		}
		for _, op := range futures {
			if err := op.Wait(ctx); err != nil {
				fails++
			}
		}
	case "batch":
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		objs := make([]dataflasks.Object, 0, ops)
		for i := 0; i < ops; i++ {
			objs = append(objs, dataflasks.Object{Key: key(i), Version: 1, Value: []byte(payload)})
		}
		for _, op := range cl.PutBatchAsync(objs, opt...) {
			if err := op.Wait(ctx); err != nil {
				fails++
			}
		}
	default:
		fatal(fmt.Errorf("unknown bench mode %q (want blocking, pipeline or batch)", mode))
	}
	elapsed := time.Since(start)
	fmt.Printf("%d %s puts in %s (%.1f ops/s, %d failed)\n",
		ops, mode, elapsed.Round(time.Millisecond), float64(ops)/elapsed.Seconds(), fails)
	// The client-side counterpart of `flaskctl stats`' directed-hit
	// ratio: a hit entered its slice at once, a fallback paid the nodes'
	// relay (always the case for -acks above 1, which floods).
	// directory_local counts the hits on the node a client shares a
	// process with: 0 here, flaskctl is a process of its own.
	dir := cl.DirectoryStats()
	if contacts := dir.Hits + dir.Fallbacks; contacts > 0 {
		fmt.Printf("directory-hit ratio %.2f (%d of %d contacts were known members of the key's slice, %d evicted)\n",
			float64(dir.Hits)/float64(contacts), dir.Hits, contacts, dir.Evictions)
		fmt.Printf("directory_local: %d\n", dir.Local)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  flaskctl -seeds id@host:port[,...] ping
  flaskctl -seeds id@host:port[,...] put <key> <version> <value>
  flaskctl -seeds id@host:port[,...] get <key> [version]
  flaskctl -seeds id@host:port[,...] del <key> [version]
  flaskctl -seeds id@host:port[,...] bench [-ops N] [-mode blocking|pipeline|batch] [-acks N]
  flaskctl -seeds id@host:port[,...] snapshot <dir>
  flaskctl stats <http-addr>            (scrape a node's /metrics; needs flasksd -http-addr)
  flaskctl trace <http-addr> [trace-id] (dump a node's /trace journal, optionally one request)`)
	os.Exit(2)
}

// fatal exits non-zero with a readable message. Retry-budget
// exhaustion almost always means nothing answered at the seed
// addresses, so it gets a connection-failure explanation instead of a
// raw error dump.
func fatal(err error) {
	if errors.Is(err, dataflasks.ErrTimeout) {
		fmt.Fprintln(os.Stderr, "flaskctl: no reply from the cluster — check that the -seeds addresses point at running flasksd nodes")
		fmt.Fprintf(os.Stderr, "  (%v)\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "flaskctl:", err)
	os.Exit(1)
}
