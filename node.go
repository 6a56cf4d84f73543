package dataflasks

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dataflasks/internal/client"
	"dataflasks/internal/core"
	"dataflasks/internal/metrics"
	"dataflasks/internal/obs"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
	"dataflasks/internal/wire"
)

// NodeConfig configures a standalone TCP node.
type NodeConfig struct {
	// ID must be unique across the deployment and fit in 32 bits.
	ID NodeID
	// Bind is the listen address ("host:port"; port 0 allowed).
	Bind string
	// Advertise is the address peers dial (default: the bound
	// address).
	Advertise string
	// Seeds are bootstrap contacts, each "id@host:port".
	Seeds []string
	// DataDir persists objects on disk; empty keeps them in memory.
	DataDir string
	// RestoreDir, when set, replays a snapshot (written by
	// `flaskctl snapshot` or store.WriteSnapshot) into the node's store
	// before it starts gossiping — disaster recovery for a node whose
	// data directory was lost. Existing objects win by version as usual,
	// so restoring over a live data directory is safe.
	RestoreDir string
	// RoundPeriod is the gossip period (default 500ms).
	RoundPeriod time.Duration
	// HTTPAddr enables the observability plane: an HTTP listener
	// ("host:port", port 0 allowed) serving /metrics (Prometheus text
	// exposition), /healthz, /readyz, /trace and /debug/pprof/. Empty
	// disables the plane entirely.
	HTTPAddr string
	// TraceEvents sizes the /trace ring (rounded up to a power of two;
	// default 1024, negative disables tracing). Only meaningful with
	// HTTPAddr: without the plane no ring is created and trace calls
	// cost two compares on the event loop.
	TraceEvents int
	// RESPStats, when set, is the RESP gateway's per-command registry;
	// the plane exports it as the flasks_resp_* families. The caller
	// (cmd/flasksd) owns it and shares it with the gateway.
	RESPStats *metrics.CommandStats
	// Config carries the protocol configuration.
	Config Config
}

// Node is a standalone DataFlasks host on TCP — the deployable unit
// behind cmd/flasksd: the fabric, the store and the observability plane
// around one core.Node, which runs itself (core.Node.Start).
type Node struct {
	id      NodeID
	net     *transport.TCPNetwork
	encoded metrics.SharedCounter // frame bytes the fabric encoded
	unknown metrics.KindCounts    // frames received of a kind wire does not know
	core    *core.Node
	// data is core once it runs, published for the fabric handlers: their
	// read loops are up from the moment the listener is, before core
	// exists.
	data atomic.Pointer[core.Node]
	st   store.Store

	trace  *obs.Ring   // /trace journal; nil when the plane is off
	obsSrv *obs.Server // nil unless HTTPAddr was set

	// locals are the clients that live in this process (NewClient), by
	// id: what the node sends to one of them skips the fabric. Nil once
	// the node is closed.
	localMu sync.RWMutex
	locals  map[NodeID]*Client

	closeOnce sync.Once
}

// ParseSeed parses "id@host:port".
func ParseSeed(s string) (NodeID, string, error) {
	at := strings.IndexByte(s, '@')
	if at <= 0 || at == len(s)-1 {
		return 0, "", fmt.Errorf("dataflasks: seed %q must be id@host:port", s)
	}
	id, err := strconv.ParseUint(s[:at], 10, 32)
	if err != nil {
		return 0, "", fmt.Errorf("dataflasks: seed %q: bad id: %w", s, err)
	}
	return NodeID(id), s[at+1:], nil
}

// StartNode boots a TCP node: it listens, learns its seeds and starts
// gossiping immediately.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == 0 || uint64(cfg.ID) > 1<<32-1 {
		return nil, fmt.Errorf("dataflasks: node id %d must be in [1, 2^32)", cfg.ID)
	}
	n := &Node{
		id:     cfg.ID,
		locals: make(map[NodeID]*Client),
	}
	tcpNet, err := transport.ListenTCP(cfg.ID, cfg.Bind, cfg.Advertise,
		transport.TCPConfig{Codec: wire.BinaryCodec(), EncodeBytes: &n.encoded}, n.deliver)
	if err != nil {
		return nil, err
	}
	n.net = tcpNet
	// fail undoes what has been opened so far.
	fail := func(err error) (*Node, error) {
		if n.core != nil {
			n.core.Stop()
		}
		_ = n.net.Close()
		if n.st != nil {
			_ = n.st.Close()
		}
		return nil, err
	}

	coreCfg := cfg.Config.coreConfig()
	if n.st, err = coreCfg.Store.Open(cfg.DataDir); err != nil {
		return fail(err)
	}
	if cfg.RestoreDir != "" {
		if _, err := store.Restore(cfg.RestoreDir, n.st); err != nil {
			return fail(fmt.Errorf("dataflasks: restore %s: %w", cfg.RestoreDir, err))
		}
	}
	coreCfg.RoundPeriod = cfg.RoundPeriod
	coreCfg.AdvertiseAddr = tcpNet.Addr()
	coreCfg.AddressBook = tcpNet
	if cfg.HTTPAddr != "" && cfg.TraceEvents >= 0 {
		events := cfg.TraceEvents
		if events == 0 {
			events = 1024
		}
		n.trace = obs.NewRing(events)
		coreCfg.Trace = n.trace
	}
	seedIDs := make([]NodeID, 0, len(cfg.Seeds))
	for _, s := range cfg.Seeds {
		id, addr, err := ParseSeed(s)
		if err != nil {
			return fail(err)
		}
		tcpNet.Learn(id, addr)
		seedIDs = append(seedIDs, id)
	}
	n.core = core.NewNode(cfg.ID, coreCfg, n.st, n.localFirst(tcpNet.Sender()))
	n.core.Bootstrap(seedIDs)
	n.core.Start(context.Background())
	n.data.Store(n.core)

	if cfg.HTTPAddr != "" {
		src := obs.Sources{
			NodeID:          uint64(cfg.ID),
			Status:          n.core.Status,
			EncodeBytes:     &n.encoded,
			UnknownFrames:   &n.unknown,
			RESP:            cfg.RESPStats,
			TickDur:         n.core.TickDurations(),
			MailboxDepth:    n.core.MailboxDepth,
			MailboxCapacity: n.core.MailboxCapacity(),
			MailboxDropped:  n.core.MailboxDropped,
			Trace:           n.trace,
			Shards:          n.core.ShardCount(),
			ShardDepth:      n.core.ShardDepth,
			ShardCapacity:   n.core.ShardMailboxCapacity(),
			ShardDropped:    n.core.ShardDropped,
			ShardTickDur:    n.core.ShardTickDurations,
		}
		if sp, ok := n.st.(store.StatsProvider); ok {
			src.Store = sp.Stats
		}
		n.obsSrv = obs.NewServer(src)
		if _, err := n.obsSrv.Listen(cfg.HTTPAddr); err != nil {
			return fail(fmt.Errorf("dataflasks: observability plane: %w", err))
		}
	}
	return n, nil
}

// deliver is the fabric's handler and the way in for a local client
// (NewClient): core.Node.Deliver, once there is a running core. What
// arrives earlier is lost, like any message to a node still starting. A
// frame of a kind this build does not know is counted by kind and then
// handed on like any message; the node ignores it.
func (n *Node) deliver(env transport.Envelope) {
	if u, ok := env.Msg.(wire.Unknown); ok {
		n.unknown.Inc(u.Kind)
	}
	if c := n.data.Load(); c != nil {
		c.Deliver(env)
	}
}

// ID returns the node id.
func (n *Node) ID() NodeID { return n.id }

// Addr returns the advertised address.
func (n *Node) Addr() string { return n.net.Addr() }

// Slice returns the node's current slice claim (-1 while undecided),
// from the latest published snapshot.
func (n *Node) Slice() int32 { return n.core.Status().Slice }

// StoredObjects returns how many object versions the node holds.
func (n *Node) StoredObjects() int { return n.st.Count() }

// PeersKnown returns the size of the fabric's learned address
// directory.
func (n *Node) PeersKnown() int { return n.net.PeerCount() }

// MailboxDropped returns how many delivered messages were discarded
// because a mailbox was full: the control mailbox (event loop
// congestion) plus the per-shard data mailboxes (shard congestion).
func (n *Node) MailboxDropped() uint64 { return n.core.MailboxDropped() + n.core.ShardDropped() }

// SendErrors returns how many fabric sends failed across every
// protocol and routing path: the msg_dropped counter as Status serves
// it, like BootstrapStats.
func (n *Node) SendErrors() uint64 { return n.core.Status().Counters[metrics.MsgDropped] }

// EncodedBytes returns how many frame bytes the node's fabric has
// encoded: what it put on the wire, every protocol included. What it
// hands a client in its own process (NewClient) is never encoded.
func (n *Node) EncodedBytes() uint64 { return n.encoded.Load() }

// BootstrapStats is a snapshot of segment-bootstrap progress: the
// bootstrap_* counters plus the joiner's terminal state. Done is true
// on nodes that never joined via segments (nothing left to do).
type BootstrapStats struct {
	Sent            uint64 // protocol messages sent (serving + joining)
	Segments        uint64 // whole segments received and CRC-verified
	Bytes           uint64 // verbatim segment bytes applied
	ChunksRejected  uint64 // chunks discarded for CRC/parse failure
	FallbackObjects uint64 // objects repaired after falling back
	Done            bool
	FellBack        bool
}

// BootstrapStats reports segment-bootstrap progress, for status lines
// and tests. It reads the event loop's published snapshot — at most
// one tick stale, never racing the loop's live counters.
func (n *Node) BootstrapStats() BootstrapStats {
	st := n.core.Status()
	return BootstrapStats{
		Sent:            st.Counters[metrics.BootstrapSent],
		Segments:        st.Counters[metrics.BootstrapSegments],
		Bytes:           st.Counters[metrics.BootstrapBytes],
		ChunksRejected:  st.Counters[metrics.BootstrapChunksRejected],
		FallbackObjects: st.Counters[metrics.BootstrapFallbackObjects],
		Done:            st.BootstrapDone,
		FellBack:        st.BootstrapFellBack,
	}
}

// HTTPAddr returns the observability plane's bound address, or ""
// when the plane is disabled.
func (n *Node) HTTPAddr() string {
	if n.obsSrv == nil {
		return ""
	}
	return n.obsSrv.Addr()
}

// Ready reports the /readyz verdict from the latest published
// snapshot: slice assigned and bootstrap finished.
func (n *Node) Ready() bool { return n.core.Status().Ready }

// localFirst wraps a fabric sender for the node: a message for a client
// that lives in this process goes into that client's mailbox by
// reference — no encode, no socket, no decode — and everything else goes
// to next. Messages are immutable once sent (the contract the in-process
// Cluster's fabric already relies on), so sharing the pointer is safe.
func (n *Node) localFirst(next transport.Sender) transport.Sender {
	return transport.SenderFunc(func(ctx context.Context, to transport.NodeID, msg interface{}) error {
		n.localMu.RLock()
		cl := n.locals[to]
		n.localMu.RUnlock()
		if cl == nil {
			return next.Send(ctx, to, msg)
		}
		cl.deliver(transport.Envelope{From: n.id, To: to, Msg: msg})
		return nil
	})
}

// Close shuts the node down and releases the store. Clients made by
// NewClient are closed first: their pending operations end with
// ErrClientClosed instead of waiting out a node that is gone.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		n.localMu.Lock()
		locals := n.locals
		n.locals = nil
		n.localMu.Unlock()
		for _, cl := range locals {
			cl.Close()
		}
		if n.obsSrv != nil {
			_ = n.obsSrv.Close()
		}
		// The core drains its shards before the fabric and the store go
		// away: every write accepted so far lands, and its ack has a live
		// connection to leave on.
		n.core.Stop()
		err = n.net.Close()
		if cerr := n.st.Close(); err == nil {
			err = cerr
		}
	})
	return err
}

// ConnectClient opens a client against a TCP deployment from a process
// of its own. Seeds are "id@host:port" contacts; bind may be ":0".
// cfg.Slices should match the deployment's slice count: it groups batch
// puts per slice and drives the slice directory's contact choice, so a
// mismatch costs relay hops (never correctness — nodes re-route what
// reaches the wrong slice). The seeds are only where the client starts:
// it learns the members of each slice from the replies it gets. A process
// that runs a Node uses that node's NewClient instead.
func ConnectClient(bind string, seeds []string, cfg Config) (*Client, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("dataflasks: ConnectClient needs at least one seed")
	}
	return connectClient(bind, seeds, cfg, nil)
}

// NewClient opens a client that lives in this node's process — what a
// gateway or any other embedder of a Node should use. The node is its
// one seed. Whatever the client and this node say to each other travels
// by function call into the other's mailbox (never blocking, overflow
// dropped and counted like a fabric delivery), and the client's slice
// directory contacts this node for every key of a slice it knows the
// node to be in. For every other node the client has a TCP fabric of its
// own, exactly as ConnectClient builds it, listening on the node's bind
// host. cfg is read as ConnectClient reads it. Closing the node closes
// the client.
//
// Attempts that take the flood (retries, deletes, WithAcks above 1)
// start at a seed, which here is always this node. A write that wants
// several acks for a key of this node's own slice therefore cannot
// collect them — the node is its one slice entry, and mates do not
// acknowledge relay copies; give such writers a ConnectClient seeded in
// several slices.
func (n *Node) NewClient(cfg Config) (*Client, error) {
	host, _, err := net.SplitHostPort(n.net.BoundAddr())
	if err != nil {
		return nil, fmt.Errorf("dataflasks: NewClient: %w", err)
	}
	return connectClient(net.JoinHostPort(host, "0"), nil, cfg, n)
}

// connectClient builds a client over a TCP fabric of its own. home, when
// not nil, is the node in whose process the client lives (see NewClient):
// it joins the seeds, and the two reach each other without the fabric.
func connectClient(bind string, seeds []string, cfg Config, home *Node) (*Client, error) {
	// Client ids live in their own range; collisions across
	// independent clients are avoided by random draw.
	id := clientIDBase + NodeID(rand.Uint32N(1<<24))

	cl := newLiveClient(500*time.Millisecond, cfg.slicesOrDefault())
	tcpNet, err := transport.ListenTCP(id, bind, "", transport.TCPConfig{Codec: wire.BinaryCodec()}, cl.deliver)
	if err != nil {
		return nil, err
	}
	cl.fabric = tcpNet
	cl.closeFabric = func() { _ = tcpNet.Close() }
	ids := make([]NodeID, 0, len(seeds)+1)
	for _, s := range seeds {
		sid, addr, err := ParseSeed(s)
		if err != nil {
			tcpNet.Close()
			return nil, err
		}
		tcpNet.Learn(sid, addr)
		ids = append(ids, sid)
	}
	sender := tcpNet.Sender()
	var local NodeID // the directory's local node; 0 for none
	if home != nil {
		local = home.id
		ids = append(ids, local)
		remote := sender
		sender = transport.SenderFunc(func(ctx context.Context, to transport.NodeID, msg interface{}) error {
			if to != local {
				return remote.Send(ctx, to, msg)
			}
			home.deliver(transport.Envelope{From: id, To: to, Msg: msg})
			return nil
		})
		cl.closeFabric = func() {
			home.detach(id)
			_ = tcpNet.Close()
		}
	}
	rng := rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64()))
	cl.contacts = client.NewRandomLB(ids, rng)
	lb := client.NewDirectory(cl.contacts, cfg.slicesOrDefault(), rng, sender, tcpNet)
	lb.SetLocal(local)
	cl.run(client.NewCore(id, client.Config{PutAcks: cfg.clientPutAcks(), SelfAddr: tcpNet.Addr()}, sender, lb))
	if home != nil && !home.attach(id, cl) {
		cl.Close()
		return nil, fmt.Errorf("dataflasks: NewClient on a closed node")
	}
	return cl, nil
}

// attach registers a local client for localFirst; it reports false on a
// closed node.
func (n *Node) attach(id NodeID, cl *Client) bool {
	n.localMu.Lock()
	defer n.localMu.Unlock()
	if n.locals == nil {
		return false
	}
	n.locals[id] = cl
	return true
}

func (n *Node) detach(id NodeID) {
	n.localMu.Lock()
	delete(n.locals, id)
	n.localMu.Unlock()
}
