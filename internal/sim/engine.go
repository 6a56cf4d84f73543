// Package sim implements the deterministic discrete-event engine that
// plays the role Minha plays in the paper's evaluation: it executes the
// unmodified protocol code of thousands of nodes in virtual time on a
// single machine. Events run strictly in (time, sequence) order, so a
// simulation with a fixed seed is bit-for-bit reproducible.
package sim

import (
	"container/heap"
	"math/rand/v2"
	"slices"
	"time"
)

// Event is a closure scheduled to run at a virtual instant.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = event{}
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event scheduler over virtual time.
// It is not safe for concurrent use: all scheduling happens from event
// callbacks or from the goroutine driving Run.
type Engine struct {
	now      time.Duration
	seq      uint64
	events   eventHeap
	executed uint64
}

// NewEngine returns an engine at virtual time zero with an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Executed returns the number of events run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }

// Schedule queues fn to run after delay. Negative delays are clamped to
// zero (run at the current instant, after already-queued events for it).
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	if delay < 0 {
		delay = 0
	}
	e.seq++
	heap.Push(&e.events, event{at: e.now + delay, seq: e.seq, fn: fn})
}

// ScheduleAt queues fn at an absolute virtual instant. Instants in the
// past are clamped to now.
func (e *Engine) ScheduleAt(at time.Duration, fn func()) {
	e.Schedule(at-e.now, fn)
}

// Step runs the single next event. It returns false when the queue is
// empty.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(event)
	e.now = ev.at
	e.executed++
	ev.fn()
	return true
}

// Run executes events until virtual time exceeds until, or the queue
// drains. The engine stops *before* running an event scheduled later
// than until, leaving it queued; Now() is then set to until.
func (e *Engine) Run(until time.Duration) {
	for len(e.events) > 0 && e.events[0].at <= until {
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

// RunUntilIdle executes events until the queue drains. maxEvents bounds
// runaway simulations; it panics when exceeded (0 means no bound).
func (e *Engine) RunUntilIdle(maxEvents uint64) {
	var n uint64
	for e.Step() {
		n++
		if maxEvents > 0 && n > maxEvents {
			panic("sim: RunUntilIdle exceeded event budget")
		}
	}
}

// Ticker schedules fn every period starting at start, until the returned
// stop function is called. fn receives the virtual time of the tick.
func (e *Engine) Ticker(start, period time.Duration, fn func(now time.Duration)) (stop func()) {
	if period <= 0 {
		panic("sim: Ticker period must be positive")
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn(e.now)
		if !stopped {
			e.Schedule(period, tick)
		}
	}
	e.ScheduleAt(start, tick)
	return func() { stopped = true }
}

// RNG derives a deterministic random generator from a root seed and a
// stream identifier (typically a node id). Separate streams are
// statistically independent, so per-node randomness does not depend on
// event interleaving.
func RNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream*0x9e3779b97f4a7c15+0x2545f4914f6cdd1d))
}

// PickSeeds draws up to five distinct bootstrap contacts for self from
// ids, uniformly: what every cluster harness hands a node it starts.
func PickSeeds[ID comparable](rng *rand.Rand, ids []ID, self ID) []ID {
	seeds := make([]ID, 0, 5)
	for len(seeds) < 5 && len(seeds) < len(ids)-1 {
		cand := ids[rng.IntN(len(ids))]
		if cand == self || slices.Contains(seeds, cand) {
			continue
		}
		seeds = append(seeds, cand)
	}
	return seeds
}
