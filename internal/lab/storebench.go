package lab

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sort"
	"time"

	"dataflasks/internal/store"
)

// ---------------------------------------------------------------------------
// E13 — store engines: put/get throughput and recovery time. Wall
// clock: no golden, and the gate holds it to completing, not to a rate.

// StoreRow is one engine configuration's measurement: rates, how long
// reopening the directory took (zero for memory), and why the
// measurement stopped, if it did.
type StoreRow struct {
	Engine                     string
	Fsync                      bool
	Puts                       int
	PutOpsPerSec, GetOpsPerSec float64
	Recover                    time.Duration
	Err                        string
}

func runStore(w io.Writer, p Params) Report {
	title(w, "E13: store engines — put/get throughput and recovery time")
	puts, fsyncPuts := 20000, 2000
	if p.Quick {
		puts, fsyncPuts = 4000, 400
	}
	fmt.Fprintf(w, "%12s %8s %12s %12s %12s %10s\n",
		"engine", "fsync", "puts", "put ops/s", "get ops/s", "recover")
	var rows []StoreRow
	for _, row := range []StoreRow{
		{Engine: "memory", Puts: puts},
		{Engine: "log", Puts: puts},
		{Engine: "log", Fsync: true, Puts: fsyncPuts}, // every put waits for a disk flush
	} {
		if err := measureStore(&row); err != nil {
			row.Err = err.Error()
			fmt.Fprintf(w, "%12s %8v measurement failed: %v\n", row.Engine, row.Fsync, err)
		} else {
			recover := "-"
			if row.Recover > 0 {
				recover = row.Recover.Round(time.Millisecond).String()
			}
			fmt.Fprintf(w, "%12s %8v %12d %12.0f %12.0f %10s\n",
				row.Engine, row.Fsync, row.Puts, row.PutOpsPerSec, row.GetOpsPerSec, recover)
		}
		rows = append(rows, row)
	}
	return Report{rows, StoreGate(rows)}
}

// StoreGate lists the engines whose measurement did not complete: a put
// or read-back that failed, or a reopen that recovered a different count.
func StoreGate(rows []StoreRow) []string {
	var g gate
	for _, r := range rows {
		g.must(r.Err == "", "%s engine (fsync=%v): %s", r.Engine, r.Fsync, r.Err)
	}
	return g
}

// measureStore drives one engine: row.Puts puts from 8 concurrent
// writers (fsync engines coalesce via group commit), as many random
// gets, then — for the log engine — a reopen to time recovery.
func measureStore(row *StoreRow) error {
	dir, err := os.MkdirTemp("", "flaskbench-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	open := func() (store.Store, error) {
		if row.Engine == "memory" {
			return store.NewMemory(), nil
		}
		return store.OpenLog(dir, store.LogOptions{Fsync: row.Fsync})
	}
	s, err := open()
	if err != nil {
		return err
	}
	n := row.Puts
	val := make([]byte, 1024)
	const writers = 8
	start := time.Now()
	errs := make(chan error, writers) // each writer's first error, or nil
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := w; i < n; i += writers {
				if err := s.Put(fmt.Sprintf("key%08d", i), 1, val); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	var firstErr error
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		s.Close()
		return firstErr
	}
	row.PutOpsPerSec = float64(n) / time.Since(start).Seconds()

	rng := rand.New(rand.NewPCG(1, 9))
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, _, ok, err := s.Get(fmt.Sprintf("key%08d", rng.IntN(n)), store.Latest); err != nil || !ok {
			s.Close()
			return fmt.Errorf("get: ok=%v err=%v", ok, err)
		}
	}
	row.GetOpsPerSec = float64(n) / time.Since(start).Seconds()
	if err := s.Close(); err != nil {
		return err
	}

	if row.Engine != "memory" {
		start = time.Now()
		s2, err := open()
		if err != nil {
			return err
		}
		defer s2.Close()
		row.Recover = time.Since(start)
		if s2.Count() != n {
			return fmt.Errorf("recovered %d of %d objects", s2.Count(), n)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// E14 — the two claims of the non-blocking compaction work: foreground
// Get/Put latency stays bounded while a rate-limited compaction pass
// churns in the background, and the batched write path amortizes group
// commit — PutBatch of 64 objects versus 64 sequential fsync'd Puts.
// Wall clock: no golden, and the gate holds it to completing.

// CompactResult is E14's measurements: foreground p99 latencies with
// compaction disabled and with a pass active for the whole window, 64
// fsync'd Puts one after the other against one PutBatch of 64, and why a
// measurement stopped, if one did.
type CompactResult struct {
	BaseGetP99, BasePutP99     time.Duration
	ActiveGetP99, ActivePutP99 time.Duration
	SeqPuts, Batch             time.Duration
	Err                        string
}

func runCompact(w io.Writer, p Params) Report {
	title(w, "E14: log engine — foreground latency under compaction, batched write path")
	n, window := 20000, 1500*time.Millisecond
	if p.Quick {
		n, window = 4000, 700*time.Millisecond
	}
	res := measureCompact(w, n, window)
	return Report{res, CompactGate(res)}
}

// measureCompact takes E14's measurements in order, writing each part of
// the table once its numbers exist, and stops at the first that fails.
func measureCompact(w io.Writer, n int, window time.Duration) (res CompactResult) {
	var err error
	if res.BaseGetP99, res.BasePutP99, err = compactLatency(n, window, false); err != nil {
		res.Err = "baseline: " + err.Error()
		return res
	}
	if res.ActiveGetP99, res.ActivePutP99, err = compactLatency(n, window, true); err != nil {
		res.Err = "under compaction: " + err.Error()
		return res
	}
	fmt.Fprintf(w, "%24s %14s %14s\n", "", "get p99", "put p99")
	fmt.Fprintf(w, "%24s %14s %14s\n", "no compaction", res.BaseGetP99, res.BasePutP99)
	fmt.Fprintf(w, "%24s %14s %14s\n", "compaction active", res.ActiveGetP99, res.ActivePutP99)
	fmt.Fprintf(w, "%24s %13.2fx %13.2fx\n", "ratio", ratio(res.ActiveGetP99, res.BaseGetP99), ratio(res.ActivePutP99, res.BasePutP99))

	if res.SeqPuts, res.Batch, err = putBatchHeadToHead(64, 1024); err != nil {
		res.Err = "putbatch: " + err.Error()
		return res
	}
	fmt.Fprintf(w, "64 fsync'd Puts: %s; PutBatch(64): %s — %.1fx\n",
		res.SeqPuts.Round(time.Microsecond), res.Batch.Round(time.Microsecond), ratio(res.SeqPuts, res.Batch))
	return res
}

// CompactGate reports a measurement that did not complete: a Get failing
// during an active pass is exactly what the experiment watches for.
func CompactGate(res CompactResult) []string {
	if res.Err != "" {
		return []string{res.Err}
	}
	return nil
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// compactLatency fills a log store with compaction debt (small
// segments, most objects deleted) and measures foreground Get/Put p99
// over a fixed wall-clock window. With compactDuring, deletes run
// under an aggressive live-ratio threshold and a copy-rate cap sized
// so the background pass cycles copy bursts and throttle sleeps for
// the whole window (pass duration ≈ 4× the window); without it,
// compaction is disabled and the same debt just sits there.
func compactLatency(n int, window time.Duration, compactDuring bool) (getP99, putP99 time.Duration, err error) {
	dir, err := os.MkdirTemp("", "flaskbench-compact-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	val := make([]byte, 1024)
	opts := store.LogOptions{SegmentMaxBytes: 1 << 20, CompactLiveRatio: -1}
	if compactDuring {
		// The pass's charged work is roughly the whole data set (reads)
		// plus the ~10% live copies; spread it over ~4 windows.
		opts.CompactLiveRatio = 0.95
		work := int64(n) * int64(len(val)) * 11 / 10
		opts.CompactRateBytesPerSec = work / int64(4*window/time.Second+1)
	}
	l, err := store.OpenLog(dir, opts)
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()

	key := func(i int) string { return fmt.Sprintf("key%08d", i) }
	for i := 0; i < n; i += 256 {
		batch := make([]store.Object, 0, 256)
		for j := i; j < i+256 && j < n; j++ {
			batch = append(batch, store.Object{Key: key(j), Version: 1, Value: val})
		}
		if err := l.PutBatch(batch); err != nil {
			return 0, 0, err
		}
	}
	// Kill 90%: sealed segments collapse below any live-ratio
	// threshold. With compaction enabled the deletes kick the
	// background pass, which starts copying (rate-limited) right away.
	for i := 0; i < n*9/10; i++ {
		if _, err := l.Delete(key(i), 1); err != nil {
			return 0, 0, err
		}
	}

	survivors := n - n*9/10
	rng := rand.New(rand.NewPCG(7, 13))
	var getLat, putLat []time.Duration
	deadline := time.Now().Add(window)
	for i := 0; time.Now().Before(deadline); i++ {
		k := key(n*9/10 + rng.IntN(survivors))
		start := time.Now()
		if _, _, ok, err := l.Get(k, store.Latest); err != nil || !ok {
			return 0, 0, fmt.Errorf("get %s: ok=%v err=%v", k, ok, err)
		}
		getLat = append(getLat, time.Since(start))
		if i%4 == 0 {
			start = time.Now()
			if err := l.Put(fmt.Sprintf("new%08d", i), 1, val); err != nil {
				return 0, 0, err
			}
			putLat = append(putLat, time.Since(start))
		}
	}
	return p99(getLat), p99(putLat), nil
}

func p99(lat []time.Duration) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)*99/100]
}

// putBatchHeadToHead times n sequential fsync'd Puts against one
// PutBatch of n objects on a fresh fsync'd log store.
func putBatchHeadToHead(n, valSize int) (seq, batch time.Duration, err error) {
	dir, err := os.MkdirTemp("", "flaskbench-batch-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	l, err := store.OpenLog(dir, store.LogOptions{Fsync: true})
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	val := make([]byte, valSize)

	start := time.Now()
	for i := 0; i < n; i++ {
		if err := l.Put(fmt.Sprintf("seq%08d", i), 1, val); err != nil {
			return 0, 0, err
		}
	}
	seq = time.Since(start)

	objs := make([]store.Object, n)
	for i := range objs {
		objs[i] = store.Object{Key: fmt.Sprintf("batch%08d", i), Version: 1, Value: val}
	}
	start = time.Now()
	if err := l.PutBatch(objs); err != nil {
		return 0, 0, err
	}
	batch = time.Since(start)
	return seq, batch, nil
}
