// Package obs is the node's opt-in HTTP observability plane: /metrics
// in Prometheus text exposition format, /healthz and /readyz probes,
// the /trace protocol-event journal, and net/http/pprof under
// /debug/pprof/.
//
// The plane never touches live event-loop state. NodeMetrics is plain
// counters owned by one goroutine, so the node publishes an immutable
// Status snapshot each tick (and on readiness flips), adds its data
// shards' atomic counters as they stand when read, and every handler
// reads through Sources: snapshot closures, atomic stats types
// (SharedCounter, CommandStats, LatencyHistogram) and the lock-free trace
// ring. A scrape can therefore never stall — or race — the protocol.
package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"dataflasks/internal/metrics"
	"dataflasks/internal/store"
)

// Status is the node state published once per event-loop tick (and
// whenever readiness flips). It is immutable after publication.
type Status struct {
	// Counters is the node's counter array: the control loop's as of its
	// last publish, the data shards' as of the read.
	Counters [metrics.NumCounters]uint64
	// Slice is the node's slice, -1 before assignment.
	Slice int32
	// BootstrapDone is true once startup bootstrap finished, whether
	// by segment streaming or by falling back to anti-entropy.
	BootstrapDone bool
	// BootstrapFellBack is true when bootstrap gave up on segment
	// streaming.
	BootstrapFellBack bool
	// Ready is the /readyz verdict: slice assigned and bootstrap done.
	Ready bool
	// Reason says why the node is not ready; empty when Ready.
	Reason string
}

// Sources wires the plane to one node. Every field except NodeID may
// be nil/zero; the corresponding families and endpoints degrade
// gracefully (nil Status = never ready, empty counters).
type Sources struct {
	// NodeID identifies the node in /trace output.
	NodeID uint64
	// Status returns the node's Status: the latest published snapshot
	// with the data counters read live.
	Status func() Status
	// EncodeBytes counts the frame bytes the node's fabric encoded.
	EncodeBytes *metrics.SharedCounter
	// UnknownFrames counts the frames the node received of a kind its
	// wire table does not know, by kind.
	UnknownFrames *metrics.KindCounts
	// RESP is the gateway's per-command registry, when one runs.
	RESP *metrics.CommandStats
	// TickDur is the event loop's per-tick duration histogram.
	TickDur *metrics.LatencyHistogram
	// Store snapshots the engine's physical stats (nil when the
	// engine implements no store.StatsProvider).
	Store func() store.Stats
	// MailboxDepth reads the event-loop mailbox's current depth.
	MailboxDepth func() int
	// MailboxCapacity is the mailbox's fixed capacity.
	MailboxCapacity int
	// MailboxDropped reads the producer-side mailbox drop counter.
	MailboxDropped func() uint64
	// Shards is the data-plane shard count; with ShardDepth it drives
	// the per-shard flasks_shard_* families. Zero omits them.
	Shards int
	// ShardDepth reads shard i's current mailbox depth.
	ShardDepth func(i int) int
	// ShardCapacity is each shard mailbox's fixed capacity.
	ShardCapacity int
	// ShardDropped reads the messages dropped on shard-mailbox
	// overflow, summed across shards.
	ShardDropped func() uint64
	// Trace is the protocol-event journal; nil disables /trace.
	Trace *Ring
}

// Server serves the plane. Create with NewServer, bind with Listen.
type Server struct {
	src  Sources
	mux  *http.ServeMux
	srv  *http.Server
	addr string
}

// NewServer builds the plane's handler tree for one node.
func NewServer(src Sources) *Server {
	s := &Server{src: src, mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/trace", s.handleTrace)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler exposes the mux for in-process tests.
func (s *Server) Handler() http.Handler { return s.mux }

// Listen binds addr and serves until Close, returning the bound
// address (addr may use port 0).
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.addr = ln.Addr().String()
	s.srv = &http.Server{Handler: s.mux}
	go func() { _ = s.srv.Serve(ln) }()
	return s.addr, nil
}

// Addr returns the bound address, empty before Listen.
func (s *Server) Addr() string { return s.addr }

// Close stops serving and severs open connections.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WriteMetrics(w, s.src)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness is "the process serves HTTP": the event loop publishes
	// through snapshots, so a wedged loop is a readiness (staleness)
	// problem, not a liveness one.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var st Status
	if s.src.Status != nil {
		st = s.src.Status()
	} else {
		st.Reason = "no status published"
	}
	if !st.Ready {
		http.Error(w, "not ready: "+st.Reason, http.StatusServiceUnavailable)
		return
	}
	_, _ = w.Write([]byte("ready\n"))
}

// traceDump is the /trace response body.
type traceDump struct {
	Node   uint64           `json:"node"`
	Events []traceEventJSON `json:"events"`
}

// traceEventJSON renders an Event with its kind as a string.
type traceEventJSON struct {
	Kind string `json:"kind"`
	Event
}

// handleTrace dumps the journal, oldest first. ?id=<trace id> keeps
// only that request's events — what flaskctl trace uses to stitch one
// put across hops.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	var filter uint64
	if v := r.URL.Query().Get("id"); v != "" {
		id, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad id: "+err.Error(), http.StatusBadRequest)
			return
		}
		filter = id
	}
	dump := traceDump{Node: s.src.NodeID, Events: []traceEventJSON{}}
	for _, ev := range s.src.Trace.Snapshot() {
		if filter != 0 && ev.TraceID != filter {
			continue
		}
		dump.Events = append(dump.Events, traceEventJSON{Kind: ev.Kind.String(), Event: ev})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(dump)
}
