// Package aggregate implements gossip-based aggregation in the style of
// the fault-tolerant aggregation work the paper cites ([24]): every
// node learns the system size from purely local exchanges.
//
// The estimator is extrema propagation: every node draws M
// exponential(1) variates; gossip folds views with pointwise MIN
// (idempotent, so duplicates and message loss are harmless). After the
// vector converges, sum(min-vector) is Gamma(M, 1/N)-ish and
// N̂ = (M-1)/sum is an unbiased size estimate.
//
// The size estimate is what lets nodes auto-tune fanout = ln(N̂)+c and
// TTL without configuration (§II's dissemination sizing).
package aggregate

import (
	"context"
	"math"
	"math/rand/v2"

	"dataflasks/internal/transport"
)

// ExtremaMsg carries a node's current min-vector.
type ExtremaMsg struct {
	Seeds []float64
}

// PartnerFunc supplies a random gossip partner.
type PartnerFunc func() (transport.NodeID, bool)

// ExtremaConfig tunes the size estimator.
type ExtremaConfig struct {
	// VectorLen M trades accuracy (stderr ≈ N/sqrt(M-2)) for message
	// size. Default 64.
	VectorLen int
	// RestartEvery re-draws the local variates and restarts convergence
	// every this many ticks so departures (which would otherwise pin
	// old minima forever) age out. Default 64; 0 keeps one epoch
	// forever.
	RestartEvery int
}

func (c *ExtremaConfig) defaults() {
	if c.VectorLen <= 0 {
		c.VectorLen = 64
	}
	if c.RestartEvery < 0 {
		c.RestartEvery = 0
	} else if c.RestartEvery == 0 {
		c.RestartEvery = 64
	}
}

// Extrema is the extrema-propagation size estimator. Not safe for
// concurrent use.
type Extrema struct {
	cfg     ExtremaConfig
	out     transport.Sender
	partner PartnerFunc
	rng     *rand.Rand

	local []float64 // this node's own variates (kept across folds)
	vec   []float64 // current min-vector
	ticks int
	est   float64
	// converged counts ticks without vector change: a proxy for "the
	// estimate is usable".
	stableTicks int
}

// NewExtrema creates a size estimator.
func NewExtrema(cfg ExtremaConfig, out transport.Sender, partner PartnerFunc, rng *rand.Rand) *Extrema {
	cfg.defaults()
	if out == nil || partner == nil || rng == nil {
		panic("aggregate: NewExtrema requires sender, partner func and rng")
	}
	e := &Extrema{cfg: cfg, out: out, partner: partner, rng: rng}
	e.restart()
	return e
}

func (e *Extrema) restart() {
	e.local = make([]float64, e.cfg.VectorLen)
	for i := range e.local {
		e.local[i] = e.rng.ExpFloat64()
	}
	e.vec = make([]float64, e.cfg.VectorLen)
	copy(e.vec, e.local)
	e.stableTicks = 0
}

// Estimate returns the current size estimate (1 before convergence
// begins) and the number of ticks the min-vector has been stable.
func (e *Extrema) Estimate() (n float64, stableTicks int) {
	sum := 0.0
	for _, v := range e.vec {
		sum += v
	}
	if sum <= 0 {
		return 1, e.stableTicks
	}
	// (M-1)/sum is the unbiased MLE-adjusted estimator for N from the
	// minimum of N exponentials in each coordinate.
	n = float64(len(e.vec)-1) / sum
	if n < 1 {
		n = 1
	}
	return n, e.stableTicks
}

// Tick runs one gossip round: push the vector to a random partner.
// ctx bounds the round's sends.
func (e *Extrema) Tick(ctx context.Context) {
	e.ticks++
	if e.cfg.RestartEvery > 0 && e.ticks%e.cfg.RestartEvery == 0 {
		e.restart()
	}
	peer, ok := e.partner()
	if !ok {
		return
	}
	vec := make([]float64, len(e.vec))
	copy(vec, e.vec)
	// The fold is idempotent, so a lost push costs only a round; the
	// node's sender counts the failure.
	_ = e.out.Send(ctx, peer, &ExtremaMsg{Seeds: vec}) //flasks:fire-and-forget
	e.stableTicks++
}

// Handle folds a received vector; it reports false for foreign
// messages. Receivers push back when the fold taught them something,
// which spreads news fast without flooding. ctx bounds the push-back.
func (e *Extrema) Handle(ctx context.Context, from transport.NodeID, msg interface{}) bool {
	m, ok := msg.(*ExtremaMsg)
	if !ok {
		return false
	}
	changedMine, theirsStale := e.fold(m.Seeds)
	if changedMine {
		e.stableTicks = 0
	}
	if theirsStale {
		vec := make([]float64, len(e.vec))
		copy(vec, e.vec)
		_ = e.out.Send(ctx, from, &ExtremaMsg{Seeds: vec}) //flasks:fire-and-forget see Tick
	}
	return true
}

// fold merges pointwise minima. It reports whether our vector improved
// and whether the sender's vector was missing any of our minima.
func (e *Extrema) fold(theirs []float64) (changedMine, theirsStale bool) {
	n := len(e.vec)
	if len(theirs) < n {
		n = len(theirs)
	}
	for i := 0; i < n; i++ {
		switch {
		case theirs[i] < e.vec[i]:
			e.vec[i] = theirs[i]
			changedMine = true
		case theirs[i] > e.vec[i]:
			theirsStale = true
		}
	}
	return changedMine, theirsStale
}

// RelativeError is a test helper: |est-truth|/truth.
func RelativeError(est, truth float64) float64 {
	if truth == 0 {
		return math.Inf(1)
	}
	return math.Abs(est-truth) / truth
}
