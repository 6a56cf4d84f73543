package client

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"dataflasks/internal/core"
	"dataflasks/internal/gossip"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// Operation outcomes.
var (
	// ErrTimeout reports an operation that exhausted its retries
	// without enough replies. For gets this is also how "not found"
	// manifests: epidemic reads have no authoritative negative.
	ErrTimeout = errors.New("client: operation timed out")
	// ErrNoContact reports an empty load balancer.
	ErrNoContact = errors.New("client: no contact node available")
)

// Result is the outcome of one operation, delivered to its callback.
type Result struct {
	ID      gossip.RequestID
	Key     string
	Version uint64
	Value   []byte
	Err     error
	// Acks is how many distinct replicas acknowledged a put, batch put
	// or delete.
	Acks int
	// Applied is the largest per-replica application count reported by
	// the acks of a batch operation: objects stored for a batch put,
	// items that named an object and were removed for a delete. Zero for
	// single puts and gets.
	Applied int
	// Retries is how many times the operation was re-issued.
	Retries int
}

// Config tunes the client core.
type Config struct {
	// PutAcks is how many distinct replica acks complete a put, batch
	// put or delete (default 1; 0 makes writes fire-and-forget,
	// completing instantly). Overridable per operation via Opts.Acks.
	PutAcks int
	// TimeoutTicks is how many ticks an attempt may run before retry
	// (default 20).
	TimeoutTicks int
	// Retries is how many fresh attempts follow a timeout (default 3).
	// Each retry uses a new request id — duplicate-suppression caches
	// across the system would swallow a re-used id — and a fresh
	// contact node.
	Retries int
	// SelfAddr is the client's dialable address, stamped into requests
	// so replicas on TCP fabrics can answer. Empty for in-process and
	// simulated deployments.
	SelfAddr string
}

func (c *Config) defaults() {
	if c.PutAcks < 0 {
		c.PutAcks = 0
	} else if c.PutAcks == 0 {
		c.PutAcks = 1
	}
	if c.TimeoutTicks <= 0 {
		c.TimeoutTicks = 20
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 3
	}
}

// Opts overrides the core configuration for one operation. The zero
// value inherits every config default, so existing call sites keep
// their behavior.
type Opts struct {
	// Acks overrides Config.PutAcks for this write: 0 inherits,
	// negative makes it fire-and-forget (completes instantly, no acks
	// awaited). Ignored by gets.
	Acks int
	// TimeoutTicks overrides the per-attempt tick budget (0 inherits).
	TimeoutTicks int
	// Retries overrides the retry budget: 0 inherits, negative means
	// no retries (one attempt only).
	Retries int
	// TraceID, when non-zero, stamps the request so every node it
	// touches journals its lifecycle in the node's /trace ring. Retries
	// keep the same trace id: the attempts are one logical operation.
	TraceID uint64
	// Flood asks for the epidemic fanout from the first attempt (see
	// pending.flood for when the client asks by itself). The lab sets
	// it to measure the paper's undirected global phase; the public API
	// does not expose it.
	Flood bool
}

type opKind int

const (
	opPut opKind = iota + 1
	opGet
	opPutBatch
	opDeleteBatch
)

type pending struct {
	kind    opKind
	id      gossip.RequestID
	key     string
	version uint64
	value   []byte
	objs    []store.Object    // opPutBatch payload
	items   []core.DeleteItem // opDeleteBatch payload
	noAck   bool
	// applied is the largest per-replica application count any ack
	// reported (see Result.Applied).
	applied int

	// Per-op knobs resolved from Opts at start time.
	wantAcks     int
	timeoutTicks int
	maxRetries   int
	traceID      uint64
	// flood marks an op whose every attempt must take the epidemic
	// fanout through the global phase, not the one directed hop: it
	// needs more than one ack (only global-phase copies are acked, so
	// several slice nodes must receive one), it is a delete (a replica
	// the delete misses resurrects the object — anti-entropy carries no
	// deletion record), or the caller said so. Every other op starts
	// optimistic and floods from its first retry on.
	flood bool

	ackFrom     map[transport.NodeID]bool
	deadline    uint64
	retries     int
	lastContact transport.NodeID
	hasContact  bool
	done        func(Result)
	// attempts holds the superseded request ids of earlier attempts of
	// this op; acks addressed to them still count (see Core.aliases).
	attempts []gossip.RequestID
}

// countsAcks reports whether the op completes by accumulating replica
// acknowledgements (everything but gets, which complete on the first
// reply).
func (p *pending) countsAcks() bool { return p.kind != opGet }

// floods reports whether the current attempt asks the nodes for the
// epidemic fanout: the op demands it, or this is a retry.
func (p *pending) floods() bool { return p.flood || p.retries > 0 }

// Core is the client library's event-driven engine: it issues requests
// through the load balancer, tracks outstanding operations, de-dupes
// the multiple replies epidemic routing produces (§V) and drives
// timeouts/retries off an abstract tick clock. Not safe for concurrent
// use; the live wrapper serializes access.
type Core struct {
	id  transport.NodeID
	cfg Config
	out transport.Sender
	lb  LoadBalancer
	// dir is lb when lb is the slice directory, nil otherwise: the
	// directory also learns from replies, which no other balancer does.
	dir *Directory

	seq  uint32
	tick uint64
	ops  map[gossip.RequestID]*pending
	// aliases maps the request ids of superseded attempts of ack-counted
	// ops to their live op: a retry re-issues under a fresh id (dedup
	// caches across the system would swallow a re-used one), but acks
	// for the previous attempt may still be in flight and are from
	// distinct replicas all the same — dropping them makes Acks>1
	// operations time out needlessly.
	aliases map[gossip.RequestID]*pending
}

// NewCore creates a client engine. id must be unique in the fabric —
// replies are routed to it like any other message.
func NewCore(id transport.NodeID, cfg Config, out transport.Sender, lb LoadBalancer) *Core {
	cfg.defaults()
	if out == nil || lb == nil {
		panic("client: NewCore requires a sender and a load balancer")
	}
	dir, _ := lb.(*Directory)
	return &Core{
		id:      id,
		cfg:     cfg,
		out:     out,
		lb:      lb,
		dir:     dir,
		ops:     make(map[gossip.RequestID]*pending),
		aliases: make(map[gossip.RequestID]*pending),
	}
}

// ID returns the client's fabric identity.
func (c *Core) ID() transport.NodeID { return c.id }

// Pending returns the number of in-flight operations.
func (c *Core) Pending() int { return len(c.ops) }

// DirectoryStats returns the slice directory's contact-decision
// counters (all zero for a core built over another balancer).
func (c *Core) DirectoryStats() DirectoryStats {
	if c.dir == nil {
		return DirectoryStats{}
	}
	return c.dir.stats
}

// DirectoryMembers returns a copy of the members the slice directory
// knows for slice (nil for a core built over another balancer).
func (c *Core) DirectoryMembers(slice int32) []transport.NodeID {
	if c.dir == nil {
		return nil
	}
	return slices.Clone(c.dir.members[slice])
}

// resolve fills per-op knobs from opts over the config defaults.
func (c *Core) resolve(op *pending, opts Opts) {
	op.wantAcks = c.cfg.PutAcks
	if opts.Acks > 0 {
		op.wantAcks = opts.Acks
	} else if opts.Acks < 0 {
		op.wantAcks = 0
	}
	op.noAck = op.countsAcks() && op.wantAcks == 0
	op.timeoutTicks = c.cfg.TimeoutTicks
	if opts.TimeoutTicks > 0 {
		op.timeoutTicks = opts.TimeoutTicks
	}
	op.maxRetries = c.cfg.Retries
	if opts.Retries > 0 {
		op.maxRetries = opts.Retries
	} else if opts.Retries < 0 {
		op.maxRetries = 0
	}
	op.traceID = opts.TraceID
	op.flood = opts.Flood || (op.countsAcks() && op.wantAcks > 1) || op.kind == opDeleteBatch
}

// start resolves op's knobs and issues its first attempt; a
// fire-and-forget write completes at once. It returns the first
// attempt's request id.
func (c *Core) start(op *pending, opts Opts, done func(Result)) gossip.RequestID {
	op.ackFrom, op.done = make(map[transport.NodeID]bool), done
	c.resolve(op, opts)
	c.launch(op)
	if op.noAck {
		c.complete(op, Result{ID: op.id, Key: op.key, Version: op.version})
	}
	return op.id
}

// StartPutOpts begins an asynchronous put with per-op overrides; done
// runs when enough acks arrive or retries are exhausted. It returns the
// first attempt's request id.
func (c *Core) StartPutOpts(key string, version uint64, value []byte, opts Opts, done func(Result)) gossip.RequestID {
	value = append([]byte(nil), value...)
	return c.start(&pending{kind: opPut, key: key, version: version, value: value}, opts, done)
}

// StartGetOpts begins an asynchronous get with per-op overrides;
// version may be store.Latest.
func (c *Core) StartGetOpts(key string, version uint64, opts Opts, done func(Result)) gossip.RequestID {
	return c.start(&pending{kind: opGet, key: key, version: version}, opts, done)
}

// StartPutBatch begins an asynchronous multi-object put. All objects
// must map to the same slice (callers group per slice before issuing);
// the batch travels as one wire message and lands on each replica as
// one store.PutBatch call. Acks count whole batches. An empty batch
// completes immediately (there is nothing to replicate).
func (c *Core) StartPutBatch(objs []store.Object, opts Opts, done func(Result)) gossip.RequestID {
	if len(objs) == 0 {
		if done != nil {
			done(Result{})
		}
		return 0
	}
	// The first key stands for the batch in contact selection and
	// balancer hints.
	return c.start(&pending{kind: opPutBatch, key: objs[0].Key, objs: slices.Clone(objs)}, opts, done)
}

// StartDeleteBatch begins an asynchronous delete — the only one: a
// single delete is a batch of one item — mirroring StartPutBatch: all
// items must map to the same slice (callers group per slice before
// issuing), the batch travels as one wire message and lands on each
// replica as one pass over its store. Item versions may be
// store.Latest. Acks count whole batches; the result's Applied reports
// the largest per-replica count of items that actually existed. An
// empty batch completes immediately.
func (c *Core) StartDeleteBatch(items []core.DeleteItem, opts Opts, done func(Result)) gossip.RequestID {
	if len(items) == 0 {
		if done != nil {
			done(Result{})
		}
		return 0
	}
	return c.start(&pending{kind: opDeleteBatch, key: items[0].Key, items: slices.Clone(items)}, opts, done)
}

// Cancel abandons the operation that id belongs to (any attempt id of
// the op works). The op is removed from the pending table immediately —
// instead of lingering until its retry budget expires — and its done
// callback never runs. It reports whether a live op was found.
func (c *Core) Cancel(id gossip.RequestID) bool {
	op, ok := c.ops[id]
	if !ok {
		op, ok = c.aliases[id]
	}
	if !ok {
		return false
	}
	delete(c.ops, op.id)
	for _, attempt := range op.attempts {
		delete(c.aliases, attempt)
	}
	return true
}

// contact picks the node an attempt of op goes to. An attempt that
// floods must start outside the directory: only global-phase copies are
// acknowledged, so entering the slice directly would leave an op that
// waits for several acks, or a delete that must reach every replica,
// with the one node contacted. A retry's random contact is not the one
// the timed-out attempt went to, when the list names another.
func (c *Core) contact(op *pending) (transport.NodeID, bool) {
	if c.dir != nil && op.floods() {
		var failed transport.NodeID
		if op.hasContact {
			failed = op.lastContact
		}
		return c.dir.random(failed)
	}
	return c.lb.Contact(op.key)
}

// launch (re)issues op with a fresh id and contact; every attempt after
// the first asks the nodes for the flood.
func (c *Core) launch(op *pending) {
	c.seq++
	op.id = gossip.MakeRequestID(c.id, c.seq)
	op.deadline = c.tick + uint64(op.timeoutTicks)
	c.ops[op.id] = op

	contact, ok := c.contact(op)
	if !ok {
		// Leave the op pending; the timeout path will retry (the
		// balancer may learn nodes meanwhile) and eventually fail it.
		op.hasContact = false
		return
	}
	op.lastContact = contact
	op.hasContact = true
	hdr := core.Routing{
		ID: op.id, Origin: c.id, OriginAddr: c.cfg.SelfAddr,
		TTL: core.TTLUnset, NoAck: op.noAck, TraceID: op.traceID, Flood: op.floods(),
	}
	var req interface{}
	switch op.kind {
	case opPut:
		req = &core.PutRequest{Routing: hdr, Key: op.key, Version: op.version, Value: op.value}
	case opGet:
		req = &core.GetRequest{Routing: hdr, Key: op.key, Version: op.version}
	case opPutBatch:
		req = &core.PutBatchRequest{Routing: hdr, Objs: op.objs}
	case opDeleteBatch:
		req = &core.DeleteBatchRequest{Routing: hdr, Items: op.items}
	}
	// Deliberately fire-and-forget: the client is its own retry loop
	// (deadline -> relaunch under a fresh id), so a failed or slow send is
	// indistinguishable from a lost message and needs no ctx or error
	// plumbing.
	//flasks:fire-and-forget
	_ = c.out.Send(context.Background(), contact, req)
}

// HandleMessage consumes replies addressed to this client. Unknown or
// duplicate replies are dropped, which is the §V duplicate-reply
// handling. A reply batch is its answers, each handled as if it had
// arrived alone from the batch's sender.
func (c *Core) HandleMessage(env transport.Envelope) {
	switch m := env.Msg.(type) {
	case *core.Replies:
		for _, msg := range m.Msgs {
			env.Msg = msg
			c.HandleMessage(env)
		}
	case *core.PutAck:
		c.onAck(m.ID, opPut, env.From, 0)
	case *core.PutBatchAck:
		c.onAck(m.ID, opPutBatch, env.From, m.Stored)
	case *core.DeleteBatchAck:
		c.onAck(m.ID, opDeleteBatch, env.From, m.Applied)
	case *core.GetReply:
		op, ok := c.ops[m.ID]
		if !ok || op.kind != opGet {
			return // late duplicate for a completed get, or foreign id
		}
		if c.dir != nil && m.Slice >= 0 {
			c.dir.learn(op.key, env.From)
		}
		c.complete(op, Result{
			ID: m.ID, Key: op.key, Version: m.Version,
			Value: m.Value, Retries: op.retries,
		})
	case *core.MateReply:
		if c.dir != nil {
			c.dir.addMates(m)
		}
	}
}

// onAck counts one replica acknowledgement for an ack-counted op. Acks
// for superseded attempt ids of a still-live op count too: the replica
// stored (or deleted) the same object either way. applied is the
// replica's per-batch application count (0 for a single put); the
// largest observed value is surfaced in the result.
func (c *Core) onAck(id gossip.RequestID, kind opKind, from transport.NodeID, applied int) {
	op, ok := c.ops[id]
	if !ok {
		op, ok = c.aliases[id]
	}
	if !ok || op.kind != kind {
		return
	}
	if op.ackFrom[from] {
		return // duplicate ack from the same replica
	}
	op.ackFrom[from] = true
	if c.dir != nil {
		// The acker stored (or removed) the key, so it is in the key's
		// slice. A contact that let another node acknowledge a request
		// addressed to it alone relayed it, so it is not.
		c.dir.learn(op.key, from)
		if op.hasContact && !op.floods() && from != op.lastContact {
			c.dir.evict(op.key, op.lastContact)
		}
	}
	if applied > op.applied {
		op.applied = applied
	}
	if len(op.ackFrom) >= op.wantAcks {
		c.complete(op, Result{
			ID: op.id, Key: op.key, Version: op.version,
			Acks: len(op.ackFrom), Applied: op.applied, Retries: op.retries,
		})
	}
}

// complete finishes op, retiring its current id and every superseded
// attempt id; late replies to any of them then miss both maps and are
// dropped by HandleMessage.
func (c *Core) complete(op *pending, r Result) {
	delete(c.ops, op.id)
	for _, id := range op.attempts {
		delete(c.aliases, id)
	}
	if op.done != nil {
		op.done(r)
	}
}

// Tick advances the client clock: the directory's contacts are drawn
// anew, expired attempts are retried with fresh ids and contacts, and
// exhausted operations fail.
func (c *Core) Tick() {
	c.tick++
	if c.dir != nil {
		c.dir.endTick()
		if c.tick%directoryRefreshTicks == 0 {
			c.dir.refresh()
		}
	}
	var expired []*pending
	for _, op := range c.ops {
		if c.tick >= op.deadline {
			expired = append(expired, op)
		}
	}
	// Stable order keeps simulations deterministic (map iteration is
	// randomized).
	sort.Slice(expired, func(i, j int) bool { return expired[i].id < expired[j].id })
	for _, op := range expired {
		if op.hasContact && c.dir != nil && !op.floods() {
			// The contact was asked to serve the key itself and produced
			// nothing in time. (A flooded attempt's contact is a random
			// node that only relays: its silence proves nothing.)
			c.dir.evict(op.key, op.lastContact)
		}
		if op.retries >= op.maxRetries {
			c.complete(op, Result{
				ID: op.id, Key: op.key, Version: op.version,
				Err:     fmt.Errorf("%w after %d attempts (op %s)", ErrTimeout, op.retries+1, op.id),
				Retries: op.retries,
			})
			continue
		}
		delete(c.ops, op.id)
		op.retries++
		// Partial acks may come from a half-replicated write; keep them
		// counting across attempts (they are distinct replicas either
		// way) — and keep the old id aliased to the op, so acks the
		// previous attempt already provoked count too when they land.
		if op.countsAcks() {
			op.attempts = append(op.attempts, op.id)
			c.aliases[op.id] = op
		}
		c.launch(op)
	}
}
