// Package bootstrap implements bulk recovery for cold-joining nodes:
// instead of discovering its slice's object set one anti-entropy round
// at a time — O(objects) header lists, pushes capped per round — a
// joiner asks one slice-mate for its sealed-segment manifest and
// streams whole segments down verbatim, then lets the always-running
// anti-entropy rounds mop up whatever was written after the manifest
// was cut. Segment streaming moves bytes at sequential-read speed with
// CRC re-verification end to end (the serving store re-verifies every
// record as it reads, the joiner re-verifies every chunk and the whole
// segment against the manifest), so a joiner is never the vector that
// spreads a peer's bit rot.
//
// The server side is stateless: a SegmentFetch names a segment and a
// byte offset, and the server streams record-aligned chunks from there
// until the segment ends (SegmentDone) or its per-round byte budget
// runs out (it just stops; the joiner notices the stall and re-issues
// the fetch at its current offset). Lost messages, a killed server and
// a throttled server all look the same to the joiner — no progress —
// and are all handled by the same re-fetch path, which escalates to
// abandoning the peer and re-probing another slice-mate. A cluster
// whose peers predate this protocol never answers the manifest probe
// (unknown wire kinds are dropped by design), so after MaxProbes
// unanswered attempts the joiner falls back cleanly to object-wise
// anti-entropy repair — mixed-version clusters converge either way.
//
// Chunks from parallel segment fetches are applied through
// store.RecordApplier, which defers tombstones to the end of the
// session so out-of-order arrival cannot resurrect deleted objects.
package bootstrap

import (
	"context"
	"hash/crc32"
	"math/rand/v2"

	"dataflasks/internal/store"
	"dataflasks/internal/transport"
)

// ManifestRequest asks a peer for its sealed-segment manifest. Slice
// guards against stale partner views: a peer in a different slice
// ignores the probe. Slice -1 means "any" (snapshot clients, which
// want the peer's whole manifest).
type ManifestRequest struct {
	Slice int32
}

// ManifestReply returns the responder's manifest. The joiner fetches
// the listed segments and trusts the per-segment CRCs as the ground
// truth for end-to-end verification.
type ManifestReply struct {
	Slice    int32
	Segments []store.SegmentInfo
}

// SegmentFetch asks the responder to stream one segment starting at a
// byte offset. It is idempotent and stateless: re-issuing it at the
// joiner's current offset is the recovery path for every loss mode.
type SegmentFetch struct {
	Segment uint64
	Offset  int64
}

// SegmentChunk carries record-aligned verbatim segment bytes. CRC
// covers Data, so one flipped byte in flight rejects one chunk, not
// the session.
type SegmentChunk struct {
	Segment uint64
	Offset  int64
	CRC     uint32
	Data    []byte
}

// SegmentDone ends one segment's stream. Bytes is the segment size the
// server reached; a joiner short of it lost chunks and re-fetches the
// tail. Missing reports a segment that vanished server-side
// (compaction) — the joiner drops it, the live data lives in later
// segments.
type SegmentDone struct {
	Segment uint64
	Bytes   int64
	Missing bool
}

// Env is what the protocol needs from its host node.
type Env struct {
	// Store is the local object store (served from and applied into).
	Store store.Store
	// Send emits a message to a peer; it counts what fails (the node's
	// accounting sender does), and the stall/re-fetch path retries by
	// design.
	Send transport.Sender
	// Partner picks a random slice-mate to bootstrap from.
	Partner func() (transport.NodeID, bool)
	// Slice returns the node's current slice claim.
	Slice func() int32
	// KeyInSlice filters which fetched records the joiner applies.
	KeyInSlice func(key string) bool
	// OnFetch, when non-nil, observes every segment fetch the joiner
	// requests (segment id and resume offset) — the trace journal's
	// boot_fetch events.
	OnFetch func(segment uint64, offset int64)
	// OnSegment, when non-nil, is called once per segment the joiner
	// completed and verified (bootstrap_segments).
	OnSegment func()
	// OnBytes, when non-nil, receives the size of every verified chunk
	// the joiner applied (bootstrap_bytes).
	OnBytes func(n int)
	// OnChunkRejected, when non-nil, is called whenever a received
	// chunk or completed segment failed verification
	// (bootstrap_chunks_rejected); the joiner re-fetches from another
	// peer.
	OnChunkRejected func()
	// OnComplete, when non-nil, observes the end of the join: fellBack
	// reports that no peer answered the manifest probe and convergence
	// is left to object-wise anti-entropy repair.
	OnComplete func(fellBack bool)
}

// Config tunes the exchange. The zero value is a serving-only node.
type Config struct {
	// Join makes the node actively bootstrap at startup: probe a
	// slice-mate for its manifest and stream its segments down.
	Join bool
	// RateBytesPerRound budgets the bytes a SERVER streams per tick —
	// the same token-bucket pattern as anti-entropy's repair limiter
	// (refilled per Tick, four rounds of burst), so serving a joiner
	// cannot monopolize disk and network under foreground load. Zero
	// means the 1 MiB default; negative means unlimited.
	RateBytesPerRound int
	// MaxInflight bounds how many segments the joiner fetches in
	// parallel (default 2).
	MaxInflight int
	// ProbeTicks is how many ticks the joiner waits for a ManifestReply
	// before trying another peer (default 5).
	ProbeTicks int
	// MaxProbes bounds manifest probe attempts before the joiner gives
	// up and falls back to anti-entropy-only convergence (default 4).
	MaxProbes int
	// StallTicks is how many progress-free ticks a segment fetch waits
	// before re-issuing the fetch at its current offset (default 5).
	StallTicks int
	// MaxRefetches bounds re-issues per segment before the peer is
	// declared dead and the joiner re-probes elsewhere (default 3).
	MaxRefetches int
}

// defaultRateBytes is the per-round server streaming budget when
// Config.RateBytesPerRound is zero.
const defaultRateBytes = 1 << 20

func (c *Config) defaults() {
	if c.RateBytesPerRound == 0 {
		c.RateBytesPerRound = defaultRateBytes
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2
	}
	if c.ProbeTicks <= 0 {
		c.ProbeTicks = 5
	}
	if c.MaxProbes <= 0 {
		c.MaxProbes = 4
	}
	if c.StallTicks <= 0 {
		c.StallTicks = 5
	}
	if c.MaxRefetches <= 0 {
		c.MaxRefetches = 3
	}
}

// joiner states.
const (
	stateIdle = iota // not yet probed (or between peers)
	stateProbing
	stateFetching
)

// fetchState tracks one in-flight segment fetch.
type fetchState struct {
	next      int64  // next expected byte offset
	crc       uint32 // running CRC of applied bytes
	stalls    int    // progress-free ticks
	refetches int    // fetch re-issues against this peer
	progress  bool   // saw a verified chunk since the last tick
}

// Protocol runs segment bootstrap for one node: every node serves,
// a joining node additionally drives the fetch state machine. Not safe
// for concurrent use — it lives on the node's event loop like every
// other protocol.
type Protocol struct {
	cfg Config
	env Env
	rng *rand.Rand

	// tokens is the server-side streaming budget (bytes); see
	// Config.RateBytesPerRound.
	tokens    int64
	unlimited bool

	joining  bool
	state    int
	peer     transport.NodeID
	waited   int // ticks since the manifest probe went out
	probes   int
	manifest map[uint64]store.SegmentInfo
	queue    []uint64
	inflight map[uint64]*fetchState
	applier  *store.RecordApplier
	done     bool
	fellBack bool
}

// New creates the protocol. All Env fields except the metric hooks are
// required.
func New(cfg Config, env Env, rng *rand.Rand) *Protocol {
	cfg.defaults()
	if env.Store == nil || env.Send == nil || env.Partner == nil || env.Slice == nil || env.KeyInSlice == nil {
		panic("bootstrap: incomplete Env")
	}
	if rng == nil {
		panic("bootstrap: New requires an rng")
	}
	p := &Protocol{cfg: cfg, env: env, rng: rng, joining: cfg.Join}
	if cfg.RateBytesPerRound < 0 {
		p.unlimited = true
	}
	if !p.joining {
		p.done = true
	}
	return p
}

// Done reports that the joiner finished (or never joined): segments
// verified and applied, or fallen back to anti-entropy.
func (p *Protocol) Done() bool { return p.done }

// FellBack reports that the join gave up on segment streaming (no peer
// answered the manifest probe, or every peer failed mid-transfer) and
// convergence is riding on object-wise anti-entropy repair.
func (p *Protocol) FellBack() bool { return p.fellBack }

// Tick refills the server streaming budget and advances the joiner
// state machine: probe timeouts, fetch stalls, in-flight top-up.
func (p *Protocol) Tick(ctx context.Context) {
	if !p.unlimited {
		rate := int64(p.cfg.RateBytesPerRound)
		p.tokens += rate
		if burst := 4 * rate; p.tokens > burst {
			p.tokens = burst
		}
	}
	if !p.joining || p.done {
		return
	}
	switch p.state {
	case stateIdle:
		p.probe(ctx)
	case stateProbing:
		p.waited++
		if p.waited > p.cfg.ProbeTicks {
			p.probe(ctx)
		}
	case stateFetching:
		p.tickFetching(ctx)
	}
}

// probe sends the next manifest probe, or falls back when the attempt
// budget is spent. Probes without a reachable partner (the membership
// view is still warming up) are free: nothing was asked of anyone.
func (p *Protocol) probe(ctx context.Context) {
	if p.probes >= p.cfg.MaxProbes {
		p.finish(true)
		return
	}
	peer, ok := p.env.Partner()
	if !ok {
		p.state = stateIdle
		return
	}
	p.probes++
	p.peer = peer
	p.waited = 0
	p.state = stateProbing
	p.send(ctx, peer, &ManifestRequest{Slice: p.env.Slice()})
}

// tickFetching runs the per-tick fetch bookkeeping: top up parallel
// fetches, detect stalls, re-issue or abandon.
func (p *Protocol) tickFetching(ctx context.Context) {
	p.pumpFetches(ctx)
	for id, fs := range p.inflight {
		if fs.progress {
			fs.progress = false
			fs.stalls = 0
			continue
		}
		fs.stalls++
		if fs.stalls < p.cfg.StallTicks {
			continue
		}
		fs.stalls = 0
		fs.refetches++
		if fs.refetches > p.cfg.MaxRefetches {
			// The peer stopped answering (died, or keeps failing): apply
			// what we verified so far and start over with another peer.
			p.abandonPeer(ctx)
			return
		}
		p.sendFetch(ctx, id, fs.next)
	}
	p.maybeFinish()
}

// pumpFetches keeps MaxInflight segment fetches outstanding.
func (p *Protocol) pumpFetches(ctx context.Context) {
	for len(p.inflight) < p.cfg.MaxInflight && len(p.queue) > 0 {
		id := p.queue[0]
		p.queue = p.queue[1:]
		p.inflight[id] = &fetchState{}
		p.sendFetch(ctx, id, 0)
	}
}

func (p *Protocol) sendFetch(ctx context.Context, id uint64, off int64) {
	if p.env.OnFetch != nil {
		p.env.OnFetch(id, off)
	}
	p.send(ctx, p.peer, &SegmentFetch{Segment: id, Offset: off})
}

// maybeFinish completes the join once nothing is queued or in flight.
func (p *Protocol) maybeFinish() {
	if p.state == stateFetching && len(p.inflight) == 0 && len(p.queue) == 0 {
		p.finish(false)
	}
}

// abandonPeer ends the current transfer session — verified data stays
// applied; puts are idempotent, so overlap with the next peer's stream
// is harmless — and re-probes another slice-mate immediately.
func (p *Protocol) abandonPeer(ctx context.Context) {
	p.finishApplier()
	p.resetSession()
	p.probe(ctx)
}

// finish ends the join for good.
func (p *Protocol) finish(fellBack bool) {
	p.finishApplier()
	p.resetSession()
	p.state = stateIdle
	p.done = true
	p.fellBack = fellBack
	if p.env.OnComplete != nil {
		p.env.OnComplete(fellBack)
	}
}

// finishApplier flushes staged puts and applies deferred tombstones.
// Errors are not fatal to the node: whatever the applier could not
// write is repaired by anti-entropy like any other divergence.
func (p *Protocol) finishApplier() {
	if p.applier != nil {
		_, _ = p.applier.Finish()
		p.applier = nil
	}
}

func (p *Protocol) resetSession() {
	p.manifest = nil
	p.queue = nil
	p.inflight = nil
	p.state = stateIdle
	p.waited = 0
}

// Handle processes bootstrap traffic; it reports false for foreign
// messages.
func (p *Protocol) Handle(ctx context.Context, from transport.NodeID, msg interface{}) bool {
	switch m := msg.(type) {
	case *ManifestRequest:
		p.serveManifest(ctx, from, m)
		return true
	case *SegmentFetch:
		p.serveFetch(ctx, from, m)
		return true
	case *ManifestReply:
		p.handleManifest(ctx, from, m)
		return true
	case *SegmentChunk:
		p.handleChunk(ctx, from, m)
		return true
	case *SegmentDone:
		p.handleDone(ctx, from, m)
		return true
	default:
		return false
	}
}

// --- server side ------------------------------------------------------------

// sealer matches engines whose active segment can be rolled into the
// sealed set (the log engine), so a manifest covers everything written
// before the probe instead of just past roll-overs.
type sealer interface{ Seal() error }

func (p *Protocol) serveManifest(ctx context.Context, from transport.NodeID, m *ManifestRequest) {
	if m.Slice >= 0 && m.Slice != p.env.Slice() {
		return // stale partner view; the joiner re-probes elsewhere
	}
	if s, ok := p.env.Store.(sealer); ok {
		_ = s.Seal()
	}
	segs, err := p.env.Store.Segments()
	if err != nil {
		return // let the joiner's probe time out; it retries elsewhere
	}
	p.send(ctx, from, &ManifestReply{Slice: p.env.Slice(), Segments: segs})
}

// serveFetch streams one segment from the requested offset, chunk by
// chunk, until it ends or the round's byte budget runs out. Budget
// exhaustion just stops — the joiner re-fetches at its offset next
// round, which is exactly how it recovers from loss, so throttling
// needs no protocol of its own.
func (p *Protocol) serveFetch(ctx context.Context, from transport.NodeID, m *SegmentFetch) {
	var reached int64
	sawEnd := false
	budgetStop := false
	err := p.env.Store.StreamSegments([]store.SegmentRef{{ID: m.Segment, Offset: m.Offset}}, func(c store.SegmentChunk) bool {
		if !p.takeTokens(len(c.Data)) {
			budgetStop = true
			return false
		}
		reached = c.Offset + int64(len(c.Data))
		if c.Last {
			sawEnd = true
		}
		if len(c.Data) > 0 {
			// The chunk aliases the store's scratch buffer; the wire
			// message needs its own copy.
			data := append([]byte(nil), c.Data...)
			p.send(ctx, from, &SegmentChunk{
				Segment: m.Segment, Offset: c.Offset,
				CRC: crc32.ChecksumIEEE(data), Data: data,
			})
		}
		return true
	})
	switch {
	case sawEnd:
		p.send(ctx, from, &SegmentDone{Segment: m.Segment, Bytes: reached})
	case budgetStop:
		// Out of tokens mid-segment: silence; the joiner's stall logic
		// resumes the transfer next round.
	default:
		// Vanished under compaction, locally corrupt past this point
		// (err is ErrCorrupt), or a nonsense offset: this copy cannot
		// complete the segment. Tell the joiner to look elsewhere.
		_ = err
		p.send(ctx, from, &SegmentDone{Segment: m.Segment, Bytes: reached, Missing: true})
	}
}

// takeTokens charges n bytes against the streaming budget. Like the
// anti-entropy limiter, it may go one chunk negative so progress never
// wedges on a chunk larger than the refill.
func (p *Protocol) takeTokens(n int) bool {
	if p.unlimited {
		return true
	}
	if p.tokens <= 0 {
		return false
	}
	p.tokens -= int64(n)
	return true
}

// --- joiner side ------------------------------------------------------------

func (p *Protocol) handleManifest(ctx context.Context, from transport.NodeID, m *ManifestReply) {
	if !p.joining || p.done || p.state != stateProbing || from != p.peer {
		return
	}
	p.manifest = make(map[uint64]store.SegmentInfo, len(m.Segments))
	p.queue = p.queue[:0]
	for _, info := range m.Segments {
		if info.Bytes <= 0 {
			continue
		}
		p.manifest[info.ID] = info
		p.queue = append(p.queue, info.ID)
	}
	p.inflight = make(map[uint64]*fetchState, p.cfg.MaxInflight)
	p.applier = store.NewRecordApplier(p.env.Store, p.env.KeyInSlice)
	p.state = stateFetching
	p.pumpFetches(ctx)
	p.maybeFinish() // an empty manifest completes immediately
}

func (p *Protocol) handleChunk(ctx context.Context, from transport.NodeID, m *SegmentChunk) {
	if p.state != stateFetching || from != p.peer {
		return
	}
	fs := p.inflight[m.Segment]
	if fs == nil {
		return
	}
	if m.Offset != fs.next {
		// A chunk behind our offset is a duplicate (re-fetch overlap);
		// one ahead means loss in between. Either way the stall path
		// re-synchronizes by re-fetching at fs.next.
		return
	}
	if crc32.ChecksumIEEE(m.Data) != m.CRC {
		// Corrupted in flight or served from rot the CRC happens to
		// cover: don't apply, don't trust this peer further.
		p.noteRejected()
		p.abandonPeer(ctx)
		return
	}
	if _, err := p.applier.Apply(m.Segment, m.Offset, m.Data); err != nil {
		// Chunk CRC passed but the records inside don't parse: the peer
		// is serving garbage with valid framing.
		p.noteRejected()
		p.abandonPeer(ctx)
		return
	}
	fs.crc = crc32.Update(fs.crc, crc32.IEEETable, m.Data)
	fs.next += int64(len(m.Data))
	fs.progress = true
	if p.env.OnBytes != nil {
		p.env.OnBytes(len(m.Data))
	}
}

func (p *Protocol) handleDone(ctx context.Context, from transport.NodeID, m *SegmentDone) {
	if p.state != stateFetching || from != p.peer {
		return
	}
	fs := p.inflight[m.Segment]
	if fs == nil {
		return
	}
	if m.Missing {
		// Compacted away (or rotten) server-side; its live records are
		// in later segments or will arrive via anti-entropy.
		delete(p.inflight, m.Segment)
		p.pumpFetches(ctx)
		p.maybeFinish()
		return
	}
	if m.Bytes > fs.next {
		// Done outran us: chunks were lost. Fetch the missing tail —
		// but charge the re-issue against the segment's budget, or a
		// peer whose chunks are persistently lost (only its Done frames
		// get through) would be re-fetched forever: the Done would keep
		// resetting the stall clock and the stall path would never run.
		fs.refetches++
		if fs.refetches > p.cfg.MaxRefetches {
			p.abandonPeer(ctx)
			return
		}
		fs.progress = true // the Done itself is progress
		p.sendFetch(ctx, m.Segment, fs.next)
		return
	}
	info := p.manifest[m.Segment]
	if fs.next != info.Bytes || fs.crc != info.CRC {
		// End-to-end verification against the manifest failed — drifted
		// synthetic segment or undetected corruption. Start over with
		// another peer.
		p.noteRejected()
		p.abandonPeer(ctx)
		return
	}
	delete(p.inflight, m.Segment)
	if p.env.OnSegment != nil {
		p.env.OnSegment()
	}
	p.pumpFetches(ctx)
	p.maybeFinish()
}

func (p *Protocol) noteRejected() {
	if p.env.OnChunkRejected != nil {
		p.env.OnChunkRejected()
	}
}

func (p *Protocol) send(ctx context.Context, to transport.NodeID, msg interface{}) {
	//flasks:fire-and-forget Env.Send counts a failure; stalled fetches re-issue
	_ = p.env.Send.Send(ctx, to, msg)
}
