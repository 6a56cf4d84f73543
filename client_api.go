package dataflasks

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dataflasks/internal/client"
	"dataflasks/internal/gossip"
	"dataflasks/internal/metrics"
	"dataflasks/internal/slicing"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// ErrNotFound reports a read that produced no replica answer within
// its retry budget. Epidemic reads have no authoritative negative: the
// object may not exist, or every reached replica may be missing it.
var ErrNotFound = errors.New("dataflasks: not found")

// ErrClientClosed reports use of a closed client.
var ErrClientClosed = errors.New("dataflasks: client closed")

// ErrCanceled reports an operation abandoned via Op.Cancel (or a
// blocking wrapper's context expiring).
var ErrCanceled = errors.New("dataflasks: operation canceled")

// ErrInFlight is returned by Op.Err while the operation has not
// completed yet.
var ErrInFlight = errors.New("dataflasks: operation in flight")

// ErrTimeout reports an operation that exhausted its retry budget
// without enough replica replies — usually an unreachable or still
// converging cluster. Reads surface it as ErrNotFound instead (an
// epidemic read has no authoritative negative).
var ErrTimeout = client.ErrTimeout

// ErrKeyTooLong reports a key that exceeds the 128 bytes every replica's
// store accepts. The client refuses the operation before sending
// anything: replicas would refuse a write too and acknowledge nothing,
// which the caller could only observe as a timeout, and none can hold
// what a read asks for — a read's error is ErrNotFound as well.
var ErrKeyTooLong = store.ErrKeyTooLong

// Client is the client API (paper §V): operations go to a contact node
// chosen by the load balancer — a member of the key's slice once the
// client's slice directory has learned one, a random seed until then —
// spread epidemically, and the multiple replies that come back are
// de-duplicated by request id.
//
// The API is future-based: PutAsync, GetAsync, DeleteAsync and
// PutBatchAsync return immediately with an *Op handle, so one client
// pipelines hundreds of in-flight operations over its single event
// loop. The blocking Put/Get/GetLatest/Delete/PutBatch methods are
// thin wrappers (start async, Wait, Cancel on context expiry) and stay
// source-compatible with the pre-futures API. Safe for concurrent use.
type Client struct {
	core   *client.Core
	period time.Duration
	slices int

	// mailbox holds the replies the client's fabric handed to deliver
	// until the loop takes them; drops counts the ones that did not fit.
	mailbox chan transport.Envelope
	drops   metrics.SharedCounter
	cmds    chan func()
	done    chan struct{}
	wg      sync.WaitGroup

	// contacts is the random contact list under the slice directory. A
	// Cluster keeps its clients' lists equal to its membership; a TCP
	// client's stays the seeds it was given.
	contacts *client.RandomLB
	// fabric is the TCP fabric the client has to itself (ConnectClient,
	// Node.NewClient): run holds each turn's sends on it. Nil for a
	// Cluster client, whose fabric is shared.
	fabric *transport.TCPNetwork
	// closeFabric releases what the constructor opened for this client
	// alone — its TCP fabric, its registration with its node; nil where
	// the fabric belongs to someone else (Cluster).
	closeFabric func()

	closeOnce sync.Once
}

// newLiveClient makes a client as far as its mailbox, so that the fabric
// about to be opened for it has a handler (deliver) to call; run starts
// it once that fabric's sender exists. slices is the deployment's slice
// count (callers resolve the default via Config.slicesOrDefault), used
// to group batch puts per target slice.
func newLiveClient(period time.Duration, slices int) *Client {
	return &Client{
		period:  period,
		slices:  slices,
		mailbox: make(chan transport.Envelope, defaultMailbox),
		cmds:    make(chan func(), 64),
		done:    make(chan struct{}),
	}
}

// deliver pushes one envelope into the mailbox without blocking,
// overflow counted: the handler of the client's fabric, and how the node
// of a Node.NewClient client reaches it.
func (c *Client) deliver(env transport.Envelope) {
	select {
	case c.mailbox <- env:
	default:
		c.drops.Inc()
	}
}

// turnMax bounds the events one turn of the client loop handles: the
// one that woke it plus what the mailbox and the command queue already
// held, so a steady stream of either still lets ticks and Close in.
const turnMax = 64

// run wraps the event-driven client core in a goroutine that owns it:
// mailbox messages, timeout ticks and API commands are serialized onto
// one loop, preserving the core's single-threaded contract. The loop
// works in turns. A turn handles the event that woke it plus whatever is
// already queued, up to turnMax. A client with a TCP fabric of its own
// holds the turn's sends on it, and the end of the turn writes each
// contact's frames at once: a pipelined burst reaches its contact whole,
// while a blocking caller's turn holds its one request and writes it
// straight away.
func (c *Client) run(core *client.Core) {
	c.core = core
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		ticker := time.NewTicker(c.period)
		defer ticker.Stop()
		fabric := c.fabric
		for {
			if fabric != nil {
				fabric.Hold()
			}
			select {
			case env := <-c.mailbox:
				c.core.HandleMessage(env)
			case <-ticker.C:
				c.core.Tick()
			case cmd := <-c.cmds:
				cmd()
			case <-c.done:
				return
			}
			for n := 1; n < turnMax; n++ {
				if !c.handleQueued() {
					break
				}
			}
			if fabric != nil {
				// Like every client send (see client.Core.launch): a lost
				// frame is a lost message, which the op's retry timer covers,
				// and the fabric counts it dropped.
				//flasks:fire-and-forget
				_ = fabric.Flush(context.Background())
			}
		}
	}()
}

// handleQueued handles one mailbox message or command if either is
// queued, and reports whether it found one.
func (c *Client) handleQueued() bool {
	select {
	case env := <-c.mailbox:
		c.core.HandleMessage(env)
	case cmd := <-c.cmds:
		cmd()
	default:
		return false
	}
	return true
}

// Close stops the client loop and then closes the client's fabric: when
// it returns, the client's goroutines are gone and its listener is
// unbound. In-flight operations fail with ErrClientClosed.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.wg.Wait()
		if c.closeFabric != nil {
			c.closeFabric()
		}
	})
}

// onLoop runs fn on the client loop and returns its result — the zero
// value on a closed client.
func onLoop[T any](c *Client, fn func() T) (zero T) {
	res := make(chan T, 1)
	if err := c.submit(func() { res <- fn() }); err != nil {
		return zero
	}
	select {
	case v := <-res:
		return v
	case <-c.done:
		return zero
	}
}

// Pending returns the number of operations currently in flight (0 on a
// closed client).
func (c *Client) Pending() int { return onLoop(c, c.core.Pending) }

// MailboxDropped returns how many inbound replies were dropped because
// the client's mailbox overflowed (the event loop was too slow to
// drain it). Epidemic reply redundancy and retries cover the loss.
func (c *Client) MailboxDropped() uint64 { return c.drops.Load() }

// DirectoryStats counts how the client picked its contact nodes: Hits
// went straight to a known member of the key's slice, Fallbacks drew
// from the seed list (slice not learned yet, or an attempt that takes
// the epidemic flood: retries, multi-ack writes, deletes), Evictions
// are members dropped after a timeout or a relayed request, Local are
// the Hits a Node.NewClient client sent to its own node by function call.
type DirectoryStats = client.DirectoryStats

// DirectoryStats returns the slice directory's counters (zero on a
// closed client).
func (c *Client) DirectoryStats() DirectoryStats { return onLoop(c, c.core.DirectoryStats) }

// submit runs fn on the client loop.
func (c *Client) submit(fn func()) error {
	select {
	case c.cmds <- fn:
		return nil
	case <-c.done:
		return ErrClientClosed
	}
}

// --- per-operation options --------------------------------------------------

// OpOption customizes one operation, overriding the client-level
// configuration for that call only.
type OpOption func(*opSettings)

type opSettings struct {
	opts client.Opts
	// timeout is converted to ticks against the client's period at
	// start time.
	timeout time.Duration
}

// WithAcks requires n distinct replica acknowledgements before a
// write (put, batch put or delete) completes. n < 1 is treated as 1;
// use WithFireAndForget for zero-ack writes. With n > 1 the request
// takes the epidemic flood from its first attempt: only the slice nodes
// the global phase reaches acknowledge, and the directed hop reaches
// one.
func WithAcks(n int) OpOption {
	return func(s *opSettings) {
		if n < 1 {
			n = 1
		}
		s.opts.Acks = n
	}
}

// WithFireAndForget makes a write complete instantly without waiting
// for any replica acknowledgement (and tells replicas not to send
// one). The future resolves immediately.
func WithFireAndForget() OpOption {
	return func(s *opSettings) { s.opts.Acks = -1 }
}

// WithTimeout gives each attempt of the operation d before the client
// retries with a fresh contact (total worst-case latency is roughly
// d × (retries+1)). The client counts time in ticks of its period, so
// an attempt gets at least d and at most one period more than d rounded
// up to the period.
func WithTimeout(d time.Duration) OpOption {
	return func(s *opSettings) { s.timeout = d }
}

// WithRetries sets how many fresh attempts follow a timed-out one
// (0 = fail after the first attempt).
func WithRetries(n int) OpOption {
	return func(s *opSettings) {
		if n <= 0 {
			s.opts.Retries = -1
			return
		}
		s.opts.Retries = n
	}
}

// WithTraceID stamps the operation with a non-zero trace id. Every
// node the request touches — entry point, relays, replicas — journals
// its lifecycle under that id in the node's /trace ring (served by the
// observability plane), so one put or get can be stitched across hops
// with `flaskctl trace`. Retried attempts keep the same id.
func WithTraceID(id uint64) OpOption {
	return func(s *opSettings) { s.opts.TraceID = id }
}

func (c *Client) resolveSettings(opts []OpOption) client.Opts {
	var s opSettings
	for _, o := range opts {
		o(&s)
	}
	if s.timeout > 0 {
		// An attempt expires at the k-th tick after the one it started in,
		// and the first of those may come at once: k ticks of d rounded up
		// would give an attempt launched late in a tick almost a period
		// less than d — next to nothing when d is one period. One tick
		// more gives every attempt at least d.
		s.opts.TimeoutTicks = int((s.timeout+c.period-1)/c.period) + 1
	}
	return s.opts
}

// --- futures ----------------------------------------------------------------

type apiKind int

const (
	kindPut apiKind = iota + 1
	kindGet
	kindDelete
	kindBatch
	kindDeleteBatch
)

// Op is the handle of one asynchronous operation. Completion is
// observable three ways: Done (a channel for select loops), Wait
// (blocking with a context) and Err (non-blocking poll). Result
// accessors (Value, Version, Acks, Retries) are valid once Done is
// closed. Safe for concurrent use.
type Op struct {
	c       *Client
	kind    apiKind
	key     string
	version uint64
	nObjs   int

	done chan struct{}

	// Written on the client loop goroutine (or before the Op escapes)
	// strictly before done is closed; readers synchronize on done.
	res      client.Result
	reqID    gossip.RequestID
	finished bool
}

// finish records the result and releases waiters. It must only run on
// the client loop goroutine (or, for ops that failed to start, before
// the Op is returned to the caller).
func (o *Op) finish(r client.Result) {
	if o.finished {
		return
	}
	o.finished = true
	o.res = r
	close(o.done)
}

// Done returns a channel closed when the operation completes (with
// either outcome). It never closes if the client is closed first; pair
// it with the client's lifetime in select loops, or use Wait.
func (o *Op) Done() <-chan struct{} { return o.done }

// Wait blocks until the operation completes, ctx expires or the client
// closes, returning the operation error, ctx.Err() or ErrClientClosed
// respectively. A context expiry does NOT cancel the operation — the
// future stays valid and may still complete; call Cancel to abandon
// it.
func (o *Op) Wait(ctx context.Context) error {
	select {
	case <-o.done:
		return o.err()
	default:
	}
	select {
	case <-o.done:
		return o.err()
	case <-ctx.Done():
		return ctx.Err()
	case <-o.c.done:
		return ErrClientClosed
	}
}

// Err polls the operation: ErrInFlight while incomplete, then nil or
// the operation's error.
func (o *Op) Err() error {
	select {
	case <-o.done:
		return o.err()
	default:
		return ErrInFlight
	}
}

// Value returns a get's value (nil until Done closes, and for other
// kinds).
func (o *Op) Value() []byte {
	select {
	case <-o.done:
		return o.res.Value
	default:
		return nil
	}
}

// Version returns the version the operation resolved to — for
// GetLatestAsync, the newest version found (0 until Done closes).
func (o *Op) Version() uint64 {
	select {
	case <-o.done:
		return o.res.Version
	default:
		return 0
	}
}

// Acks returns how many distinct replicas acknowledged a write (0
// until Done closes).
func (o *Op) Acks() int {
	select {
	case <-o.done:
		return o.res.Acks
	default:
		return 0
	}
}

// Applied returns, for batch puts and every delete, the largest
// per-replica application count any acknowledgement reported: objects
// stored for a batch put, items that named an object and were removed
// for a delete — 0 or 1 for a single delete (0 until Done closes, and
// for single puts and gets). Replicas may disagree while epidemic
// convergence is in progress; this is the most complete replica's view.
func (o *Op) Applied() int {
	select {
	case <-o.done:
		return o.res.Applied
	default:
		return 0
	}
}

// Retries returns how many times the operation was re-issued (valid
// once Done closes).
func (o *Op) Retries() int {
	select {
	case <-o.done:
		return o.res.Retries
	default:
		return 0
	}
}

// Cancel abandons the operation: it is removed from the client's
// pending table immediately (instead of lingering until its retry
// budget expires) and the future resolves to ErrCanceled. Canceling a
// completed operation is a no-op.
func (o *Op) Cancel() {
	_ = o.c.submit(func() {
		if o.finished {
			return
		}
		o.c.core.Cancel(o.reqID)
		o.finish(client.Result{Key: o.key, Version: o.version, Err: ErrCanceled})
	})
}

// err maps the raw core result to the public error surface.
func (o *Op) err() error {
	r := o.res
	if r.Err == nil {
		return nil
	}
	if errors.Is(r.Err, ErrCanceled) || errors.Is(r.Err, ErrClientClosed) {
		return r.Err
	}
	switch o.kind {
	case kindGet:
		if errors.Is(r.Err, client.ErrTimeout) {
			return fmt.Errorf("dataflasks: get %q: %w", o.key, ErrNotFound)
		}
		return fmt.Errorf("dataflasks: get %q: %w", o.key, r.Err)
	case kindDelete:
		return fmt.Errorf("dataflasks: delete %q: %w", o.key, r.Err)
	case kindBatch:
		return fmt.Errorf("dataflasks: put batch (%d objects): %w", o.nObjs, r.Err)
	case kindDeleteBatch:
		return fmt.Errorf("dataflasks: delete batch (%d items): %w", o.nObjs, r.Err)
	default:
		return fmt.Errorf("dataflasks: put %q v%d: %w", o.key, o.version, r.Err)
	}
}

// newOp allocates a handle; start must enqueue the core call.
func (c *Client) newOp(kind apiKind, key string, version uint64) *Op {
	return &Op{c: c, kind: kind, key: key, version: version, done: make(chan struct{})}
}

// failedOp returns an already-resolved handle (validation errors,
// closed client).
func (c *Client) failedOp(kind apiKind, key string, version uint64, err error) *Op {
	op := c.newOp(kind, key, version)
	op.finish(client.Result{Key: key, Version: version, Err: err})
	return op
}

// PutAsync starts storing value under (key, version) and returns its
// future. Versions must be assigned in increasing order per key by the
// caller — DataFlasks is the bottom layer of a stratified store and
// does not order writes itself (§III). The future resolves once the
// configured (or WithAcks-overridden) number of replicas acknowledged;
// an object no replica stores (store.CheckObject: a reserved version, a
// key over 128 bytes, an oversized value) fails at once, unsent.
func (c *Client) PutAsync(key string, version uint64, value []byte, opts ...OpOption) *Op {
	if err := store.CheckObject(key, version, value); err != nil {
		return c.failedOp(kindPut, key, version, err)
	}
	settings := c.resolveSettings(opts)
	op := c.newOp(kindPut, key, version)
	if err := c.submit(func() {
		op.reqID = c.core.StartPutOpts(key, version, value, settings, op.finish)
	}); err != nil {
		op.finish(client.Result{Err: err})
	}
	return op
}

// GetAsync starts reading (key, version) — version may be Latest — and
// returns its future; read the outcome with Value and Version.
func (c *Client) GetAsync(key string, version uint64, opts ...OpOption) *Op {
	if err := store.CheckKey(key); err != nil {
		// No replica can hold it: the one miss known without asking.
		return c.failedOp(kindGet, key, version, fmt.Errorf("%w: %w", ErrNotFound, err))
	}
	settings := c.resolveSettings(opts)
	op := c.newOp(kindGet, key, version)
	if err := c.submit(func() {
		op.reqID = c.core.StartGetOpts(key, version, settings, op.finish)
	}); err != nil {
		op.finish(client.Result{Err: err})
	}
	return op
}

// GetLatestAsync starts a newest-version read of key.
func (c *Client) GetLatestAsync(key string, opts ...OpOption) *Op {
	return c.GetAsync(key, Latest, opts...)
}

// DeleteAsync starts deleting (key, version); version Latest removes
// each replica's newest stored version (resolved independently per
// replica, mirroring reads), and AllVersions removes every stored
// version of the key. It travels as a delete batch of one item, so
// Applied reports 1 when the most complete acking replica held the
// object and 0 when none did. Completion follows the same ack rules as
// puts.
func (c *Client) DeleteAsync(key string, version uint64, opts ...OpOption) *Op {
	settings := c.resolveSettings(opts)
	op := c.newOp(kindDelete, key, version)
	item := []KeyVersion{{Key: key, Version: version}}
	if err := c.submit(func() {
		op.reqID = c.core.StartDeleteBatch(item, settings, func(r client.Result) {
			r.Version = version // a batch names no version of its own
			op.finish(r)
		})
	}); err != nil {
		op.finish(client.Result{Err: err})
	}
	return op
}

// PutBatchAsync starts storing a batch of objects. Objects are grouped
// by target slice (using the client's configured slice count, which
// must match the deployment's) and each group travels as ONE wire
// message that lands on every replica as one store.PutBatch call — the
// cheapest write path for bulk loads. One future per group is
// returned, in first-appearance order of the groups.
func (c *Client) PutBatchAsync(objs []Object, opts ...OpOption) []*Op {
	for _, o := range objs {
		if err := store.CheckObject(o.Key, o.Version, o.Value); err != nil {
			return []*Op{c.failedOp(kindBatch, o.Key, o.Version, err)}
		}
	}
	settings := c.resolveSettings(opts)
	groups := groupBySlice(objs, c.slices, func(o Object) string { return o.Key })
	ops := make([]*Op, 0, len(groups))
	for _, g := range groups {
		g := g
		op := c.newOp(kindBatch, g[0].Key, 0)
		op.nObjs = len(g)
		if err := c.submit(func() {
			op.reqID = c.core.StartPutBatch(g, settings, op.finish)
		}); err != nil {
			op.finish(client.Result{Err: err})
		}
		ops = append(ops, op)
	}
	return ops
}

// DeleteBatchAsync starts deleting a batch of (key, version) pairs —
// versions may be Latest. Items are grouped by target slice (mirroring
// PutBatchAsync) and each group travels as ONE core.DeleteBatchRequest
// wire message that every replica applies in one pass over its store.
// One future per group is returned, in first-appearance order of the
// groups; each future's Applied reports how many of its group's items
// the most complete acking replica actually held.
func (c *Client) DeleteBatchAsync(items []KeyVersion, opts ...OpOption) []*Op {
	settings := c.resolveSettings(opts)
	groups := groupBySlice(items, c.slices, func(kv KeyVersion) string { return kv.Key })
	ops := make([]*Op, 0, len(groups))
	for _, g := range groups {
		g := g
		op := c.newOp(kindDeleteBatch, g[0].Key, 0)
		op.nObjs = len(g)
		if err := c.submit(func() {
			op.reqID = c.core.StartDeleteBatch(g, settings, op.finish)
		}); err != nil {
			op.finish(client.Result{Err: err})
		}
		ops = append(ops, op)
	}
	return ops
}

// groupBySlice partitions items by their key's target slice,
// preserving the first-appearance order of slices and the item order
// within each — the invariant both batch puts and batch deletes rely
// on.
func groupBySlice[T any](items []T, slices int, key func(T) string) [][]T {
	index := make(map[int32]int)
	var groups [][]T
	for _, it := range items {
		s := slicing.KeySlice(key(it), slices)
		i, ok := index[s]
		if !ok {
			i = len(groups)
			index[s] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], it)
	}
	return groups
}

// --- blocking wrappers ------------------------------------------------------

// await waits for op; if the context expires, the operation is
// canceled so it does not linger in the pending table until its retry
// budget runs out.
func (c *Client) await(ctx context.Context, op *Op) error {
	err := op.Wait(ctx)
	if err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		op.Cancel()
	}
	return err
}

// Put stores value under (key, version), blocking until the configured
// number of replicas acknowledged. It is a thin wrapper over PutAsync.
func (c *Client) Put(ctx context.Context, key string, version uint64, value []byte, opts ...OpOption) error {
	return c.await(ctx, c.PutAsync(key, version, value, opts...))
}

// Get returns the value stored at (key, version).
func (c *Client) Get(ctx context.Context, key string, version uint64, opts ...OpOption) ([]byte, error) {
	op := c.GetAsync(key, version, opts...)
	if err := c.await(ctx, op); err != nil {
		return nil, err
	}
	return op.Value(), nil
}

// GetLatest returns the newest stored version of key and its version
// number.
func (c *Client) GetLatest(ctx context.Context, key string, opts ...OpOption) (value []byte, version uint64, err error) {
	op := c.GetLatestAsync(key, opts...)
	if err := c.await(ctx, op); err != nil {
		return nil, 0, err
	}
	return op.Value(), op.Version(), nil
}

// Delete removes (key, version) from the target slice's replicas;
// version Latest removes each replica's newest stored version,
// AllVersions the whole key. It blocks until the configured number of
// replicas acknowledged.
func (c *Client) Delete(ctx context.Context, key string, version uint64, opts ...OpOption) error {
	return c.await(ctx, c.DeleteAsync(key, version, opts...))
}

// PutBatch stores objs, grouped per target slice into one wire message
// per group (see PutBatchAsync), and blocks until every group
// acknowledged. The first error (if any) is returned; on context
// expiry the remaining groups are canceled.
func (c *Client) PutBatch(ctx context.Context, objs []Object, opts ...OpOption) error {
	var firstErr error
	for _, op := range c.PutBatchAsync(objs, opts...) {
		if err := c.await(ctx, op); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// DeleteBatch removes items, grouped per target slice into one wire
// message per group (see DeleteBatchAsync), and blocks until every
// group acknowledged. It returns how many items the acking replicas
// actually held (summed across groups) and the first error, if any.
func (c *Client) DeleteBatch(ctx context.Context, items []KeyVersion, opts ...OpOption) (applied int, err error) {
	for _, op := range c.DeleteBatchAsync(items, opts...) {
		if werr := c.await(ctx, op); werr != nil {
			if err == nil {
				err = werr
			}
			continue
		}
		applied += op.Applied()
	}
	return applied, err
}
