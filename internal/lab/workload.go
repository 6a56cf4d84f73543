package lab

import (
	"fmt"
	"time"

	"dataflasks/internal/client"
	"dataflasks/internal/metrics"
	"dataflasks/internal/sim"
	"dataflasks/internal/slicing"
	"dataflasks/internal/store"
	"dataflasks/internal/workload"
)

// WorkloadOptions drives one measured workload phase against a cluster,
// mirroring the paper's §VI methodology: warm up the overlay, reset
// counters, run a YCSB-style workload, drain, measure.
type WorkloadOptions struct {
	// Ops is the number of operations (default 50, the scale at which
	// the paper's per-node message counts land in the hundreds).
	Ops int
	// OpsPerRound is the injection rate (default 2).
	OpsPerRound int
	// Mix is the operation mix (default write-only, as in §VI).
	Mix workload.Mix
	// Records is the key-space size (default Ops).
	Records int
	// ValueSize is the payload size (default 100).
	ValueSize int
	// Drain rounds after the last injection (default 15).
	Drain int
	// Directory gives the client the §VII slice directory that live
	// clients run with. The default stays the paper's random balancer,
	// so the figures and ablations keep their baseline.
	Directory bool
	// Flood sets client.Opts.Flood on every measured request: the
	// global phase is the paper's epidemic fanout at every node, never
	// the one directed hop. It is how the figures and the ablations
	// that reproduce the paper's message counts keep their baseline.
	Flood bool
	// Preload inserts every record before the measured phase (needed
	// by read mixes).
	Preload bool
	// PreloadDirect seeds node stores directly — one PutBatch per node
	// with the records of its slice — instead of pushing the key space
	// through the client. It models an operator bulk-load: exact
	// slice-complete replication at a fraction of the simulated rounds
	// a client-driven preload costs on large key spaces.
	PreloadDirect bool
	// PreloadBatch preloads through the client's batched wire path:
	// records grouped per target slice, shipped as PutBatchRequest
	// messages and applied by replicas via store.PutBatch. Unlike
	// PreloadDirect it exercises real routing; unlike Preload it costs
	// one message per group, not per record.
	PreloadBatch bool
	// Seed feeds the workload generator.
	Seed uint64
}

func (o *WorkloadOptions) defaults() {
	if o.Ops <= 0 {
		o.Ops = 50
	}
	if o.OpsPerRound <= 0 {
		o.OpsPerRound = 2
	}
	if o.Mix == (workload.Mix{}) {
		o.Mix = workload.WriteOnly
	}
	if o.Records <= 0 {
		o.Records = o.Ops
	}
	if o.ValueSize <= 0 {
		o.ValueSize = 100
	}
	if o.Drain <= 0 {
		o.Drain = 15
	}
}

// WorkloadStats reports one measured workload phase.
type WorkloadStats struct {
	// Ops issued, completed OK and failed.
	Ops, OK, Failed int
	// Retries across all operations.
	Retries int
	// Messages is the distribution of per-node sent+received messages
	// during the measured phase (the Figures 3/4 metric).
	Messages metrics.Summary
	// DataMessages isolates request-dissemination sends per node.
	DataMessages metrics.Summary
	// DiscoveryMessages isolates slice-mate discovery sends per node.
	DiscoveryMessages metrics.Summary
	// PSSMessages isolates peer-sampling sends per node.
	PSSMessages metrics.Summary
	// Rounds measured (workload + drain).
	Rounds int
}

// RunWorkload executes the §VI methodology against the cluster and
// returns the measured statistics.
func (c *Cluster) RunWorkload(opts WorkloadOptions) WorkloadStats {
	opts.defaults()

	gen, err := workload.NewGenerator(workload.Config{
		Records:   opts.Records,
		ValueSize: opts.ValueSize,
		Mix:       opts.Mix,
		Seed:      opts.Seed ^ c.cfg.Seed,
	})
	if err != nil {
		panic(err) // options are programmer-controlled in the harness
	}

	var lb client.LoadBalancer // nil: NewClient's directory
	if !opts.Directory {
		lb = client.NewRandomLB(c.AliveIDs(), sim.RNG(c.cfg.Seed, 0xc11e))
	}
	cl := c.NewClient(client.Config{PutAcks: 1}, lb)

	// Warm-up: let the PSS mix, slicing converge and intra views fill.
	c.Run(30)

	// Optional preload (unmeasured): insert the whole key space.
	versions := make(map[string]uint64, opts.Records)
	switch {
	case opts.PreloadDirect:
		for _, key := range c.loadSlices(opts.Records, opts.ValueSize) {
			versions[key] = 1
		}
	case opts.PreloadBatch:
		c.preloadBatch(cl, versions, opts)
	case opts.Preload:
		c.preload(cl, versions, opts)
	}

	c.ResetMetrics()

	stats := WorkloadStats{Ops: opts.Ops}
	done := func(r client.Result) {
		stats.Retries += r.Retries
		if r.Err != nil {
			stats.Failed++
			return
		}
		stats.OK++
	}

	opOpts := client.Opts{Flood: opts.Flood}
	issued := 0
	injectRounds := (opts.Ops + opts.OpsPerRound - 1) / opts.OpsPerRound
	for round := 0; round < injectRounds; round++ {
		c.Engine.Schedule(time.Duration(round)*Round, func() {
			for i := 0; i < opts.OpsPerRound && issued < opts.Ops; i++ {
				op := gen.Next()
				switch op.Kind {
				case workload.OpRead:
					cl.StartGetOpts(op.Key, store.Latest, opOpts, done)
				default:
					versions[op.Key]++
					cl.StartPutOpts(op.Key, versions[op.Key], op.Value, opOpts, done)
				}
				issued++
			}
		})
	}
	measured := injectRounds + opts.Drain
	c.Run(measured)

	stats.Rounds = measured
	stats.Messages = metrics.SummarizeValues(c.MessagesPerNode())
	stats.DataMessages = metrics.Summarize(c.NodeMetrics(), metrics.DataSent)
	stats.DiscoveryMessages = metrics.Summarize(c.NodeMetrics(), metrics.DiscoverySent)
	stats.PSSMessages = metrics.Summarize(c.NodeMetrics(), metrics.PSSSent)
	return stats
}

// loadSlices bulk-loads records keys (version 1, valueSize bytes)
// straight into the stores of the nodes whose slice owns them, one
// PutBatch per node, and returns the keys. It models an operator
// bulk-load: exact slice-complete replication, so whatever damage an
// experiment then does is the only thing left to repair.
func (c *Cluster) loadSlices(records, valueSize int) []string {
	k := c.sliceCount()
	value := make([]byte, valueSize)
	keys := make([]string, records)
	bySlice := make(map[int32][]store.Object, k)
	for i := range keys {
		keys[i] = workload.Key(i)
		slice := slicing.KeySlice(keys[i], k)
		bySlice[slice] = append(bySlice[slice], store.Object{Key: keys[i], Version: 1, Value: value})
	}
	for _, n := range c.Nodes() {
		if batch := bySlice[n.Slice()]; len(batch) > 0 {
			if err := n.Store().PutBatch(batch); err != nil {
				panic(fmt.Sprintf("lab: bulk-load node %s: %v", n.ID(), err))
			}
		}
	}
	return keys
}

// preloadBatch inserts the key space through the client's batched put
// path: per-slice groups of at most 128 records, each one wire message
// applied by replicas as a single store.PutBatch (unmeasured).
func (c *Cluster) preloadBatch(cl *client.Core, versions map[string]uint64, opts WorkloadOptions) {
	k := c.sliceCount()
	const maxBatch = 128
	bySlice := make(map[int32][]store.Object, k)
	for i := 0; i < opts.Records; i++ {
		key := workload.Key(i)
		versions[key] = 1
		value := make([]byte, opts.ValueSize)
		slice := slicing.KeySlice(key, k)
		bySlice[slice] = append(bySlice[slice], store.Object{Key: key, Version: 1, Value: value})
	}
	c.Engine.Schedule(0, func() {
		for s := int32(0); s < int32(k); s++ { // ascending, not map order: see runPipelineMode
			objs := bySlice[s]
			for start := 0; start < len(objs); start += maxBatch {
				end := start + maxBatch
				if end > len(objs) {
					end = len(objs)
				}
				cl.StartPutBatch(objs[start:end], client.Opts{}, nil)
			}
		}
	})
	c.Run(opts.Drain)
}

// preload inserts every record and waits for completion (unmeasured).
func (c *Cluster) preload(cl *client.Core, versions map[string]uint64, opts WorkloadOptions) {
	perRound := opts.OpsPerRound * 4
	if perRound < 8 {
		perRound = 8
	}
	idx := 0
	rounds := (opts.Records + perRound - 1) / perRound
	for r := 0; r < rounds; r++ {
		c.Engine.Schedule(time.Duration(r)*Round, func() {
			for i := 0; i < perRound && idx < opts.Records; i++ {
				key := workload.Key(idx)
				versions[key] = 1
				value := make([]byte, opts.ValueSize)
				cl.StartPut(key, 1, value, nil)
				idx++
			}
		})
	}
	c.Run(rounds + opts.Drain)
}
