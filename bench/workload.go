package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"dataflasks/internal/hashmix"
	"dataflasks/internal/workload"
)

// spec is one named workload: the cluster shape it needs, the record
// space it preloads and the closed loop that drives it.
type spec struct {
	name string
	// why is the one-line rationale BENCHMARK.json and the README carry.
	why string
	// records is the preloaded key space (0: inserts of fresh keys only).
	records   int
	valueSize int
	// putShare is the share of timed ops that write (1 with records == 0
	// means inserts of fresh keys; otherwise a new version of a chosen
	// record).
	putShare float64
	// zipf picks records zipfian(0.99); false picks uniformly.
	zipf bool
	// ops30 is the timed op count of a 30 s run, sized so that the
	// reference box takes about that long; opsFor scales it. The count
	// is fixed, not the time, because an op's cost depends on how many
	// versions have piled up before it.
	ops30 int
	// workers is the number of clients (native) or connections (RESP);
	// capped at nproc when run. Each keeps window ops in flight.
	workers, window int
	// dataShards is passed to every node as -data-shards (0: inline runtime).
	dataShards int
	// resp drives node 1's RESP gateway instead of the native client.
	resp bool
}

// specs is the benchmark's workload table, in the order the suite runs it.
var specs = []spec{
	{
		name: "put_durable", ops30: 45000, valueSize: 1024, putShare: 1, workers: 2, window: 1,
		why: "write-only inserts of fresh 1 KiB keys, 2 blocking callers: the paper's YCSB load; only the put path (relay, append, group-commit fsync, ack) works",
	},
	{
		name: "get_zipf", ops30: 170000, records: 20000, valueSize: 1024, zipf: true, workers: 2, window: 1,
		why: "zipfian reads of 20000 preloaded 1 KiB records, 2 blocking callers: same wire and relay route as puts but index + pread, so write-path changes must not move it",
	},
	{
		name: "mixed_pipeline", ops30: 130000, records: 20000, valueSize: 128, putShare: 0.5, zipf: true,
		workers: 1, window: 32, dataShards: 2,
		why: "50/50 get/put of 128 B values through one client with 32 ops in flight on 2-shard nodes: throughput-bound, per-message cost and reads queued behind fsyncing writes dominate",
	},
	{
		name: "resp_pipeline", ops30: 75000, records: 2016, valueSize: 4096, putShare: 0.5,
		workers: 2, window: 16, resp: true,
		why: "50/50 SET/GET of 4 KiB values over 2 RESP connections, pipeline depth 16, through node 1's gateway: the only user of internal/resp and the bytes-heavy case",
	},
}

// opsFor is the timed op count of a run of the given length.
func (sp spec) opsFor(seconds int) int { return sp.ops30 * seconds / 30 }

// blocking reports whether every caller has one op outstanding: the
// workloads whose p99 is steady enough to be end-to-end, and the ones
// the traced replay (one caller, one op outstanding) stands for.
func (sp spec) blocking() bool { return sp.window == 1 }

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// preloadVersion is the version every preloaded record carries; timed
// writes use laneVersion, which is always larger.
const preloadVersion = 1

// laneVersion is the n-th (1-based) version lane writes to one key.
// Lanes never share a version, so equal (key, version) pairs always
// carry equal values — the ordering contract DataFlasks leaves to the
// layer above it.
func laneVersion(n uint32, lane int) uint64 { return uint64(n)<<16 | uint64(lane&0xffff) }

func keyTag(seed uint64) uint64 { return hashmix.Mix64(seed) >> 40 }

// recordKey names preloaded record i. The seed is part of the name, so
// each seed spreads its records over the slices differently.
func recordKey(seed uint64, i int) string { return fmt.Sprintf("rec-%06x-%07d", keyTag(seed), i) }

// insertKey names the n-th fresh key a lane inserts.
func insertKey(seed uint64, lane, n int) string {
	return fmt.Sprintf("ins-%06x-%03d-%08d", keyTag(seed), lane, n)
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key)) // hash.Hash writes never fail
	return h.Sum64()
}

// valueStream is the splitmix64 stream behind the value of (seed, key,
// version); next returns its next 8 bytes.
type valueStream struct {
	x    uint64
	word [8]byte
}

func newValueStream(seed uint64, key string, version uint64) valueStream {
	return valueStream{x: hashmix.Mix64(seed^hashKey(key)) ^ hashmix.Mix64(version)}
}

func (v *valueStream) next() []byte {
	v.x += 0x9e3779b97f4a7c15
	binary.LittleEndian.PutUint64(v.word[:], hashmix.Mix64(v.x))
	return v.word[:]
}

// fillValue writes the value of (seed, key, version) into dst: the
// version in the first 8 bytes, then the stream. Every reply can
// therefore be checked from its own bytes, whichever version a replica
// chose to return.
func fillValue(dst []byte, seed uint64, key string, version uint64) {
	binary.LittleEndian.PutUint64(dst, version)
	vs := newValueStream(seed, key, version)
	for off := 8; off < len(dst); off += 8 {
		copy(dst[off:], vs.next())
	}
}

// errWrong marks a reply whose value is wrong or missing, as opposed to
// an op that erred or timed out.
var errWrong = errors.New("wrong value")

// checkValue verifies a returned value's length and every byte, and
// returns the version the value says it is.
func checkValue(val []byte, seed uint64, key string, size int) (uint64, error) {
	if len(val) != size {
		return 0, fmt.Errorf("%w: %q has %d bytes, want %d", errWrong, key, len(val), size)
	}
	version := binary.LittleEndian.Uint64(val)
	vs := newValueStream(seed, key, version)
	for off := 8; off < len(val); off += 8 {
		got := val[off:min(off+8, len(val))]
		if !bytes.Equal(got, vs.next()[:len(got)]) {
			return version, fmt.Errorf("%w: %q v%d fails its checksum", errWrong, key, version)
		}
	}
	return version, nil
}

// op is one generated operation. Gets read the newest version.
type op struct {
	put     bool
	key     string
	rec     int    // record index, -1 for a fresh insert
	version uint64 // the version a put writes
}

// opGen is one lane's deterministic op stream: (spec, seed, lane) fix
// every key, the put/get mix and every value, whatever the timing.
type opGen struct {
	sp       spec
	seed     uint64
	lane     int
	rng      *rand.Rand
	chooser  workload.Chooser
	inserted int
	// written counts this lane's writes per record; laneVersion turns
	// the count into a version.
	written map[int]uint32
}

func newOpGen(sp spec, seed uint64, lane int) *opGen {
	g := &opGen{
		sp: sp, seed: seed, lane: lane,
		rng:     rand.New(rand.NewPCG(seed, hashmix.Mix64(uint64(lane)+1))),
		written: make(map[int]uint32),
	}
	switch {
	case sp.records == 0:
	case sp.zipf:
		g.chooser = workload.NewZipfian(sp.records, 0.99)
	default:
		g.chooser = workload.NewUniform(sp.records)
	}
	return g
}

func (g *opGen) next() op {
	if g.sp.records == 0 {
		g.inserted++
		return op{put: true, rec: -1, key: insertKey(g.seed, g.lane, g.inserted), version: laneVersion(1, g.lane)}
	}
	rec := g.chooser.Next(g.rng)
	o := op{rec: rec, key: recordKey(g.seed, rec)}
	if g.rng.Float64() < g.sp.putShare {
		g.written[rec]++
		o.put = true
		o.version = laneVersion(g.written[rec], g.lane)
	}
	return o
}

// streamHash folds the first n ops of every lane, values included, into
// one number: equal seeds must give equal hashes.
func streamHash(sp spec, seed uint64, lanes, n int) uint64 {
	h := fnv.New64a()
	val := make([]byte, sp.valueSize)
	var num [8]byte
	for lane := 0; lane < lanes; lane++ {
		g := newOpGen(sp, seed, lane)
		for i := 0; i < n; i++ {
			o := g.next()
			_, _ = h.Write([]byte(o.key)) // hash.Hash writes never fail
			binary.LittleEndian.PutUint64(num[:], o.version)
			_, _ = h.Write(num[:])
			if o.put {
				fillValue(val, seed, o.key, o.version)
				_, _ = h.Write(val)
			}
		}
	}
	return h.Sum64()
}
