package main

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"time"

	"almanac/internal/obs"
	"almanac/internal/vclock"
)

// sizes fixes every op count and geometry of a run. Sizes are op counts,
// never durations, so device counters repeat exactly; -seconds picks
// them through sizesFor, and the tests use a tiny set directly.
type sizes struct {
	servedBlocks int // blocks per plane of each of the 4 served shards
	pipelinedOps int // served-pipelined ops per repetition
	qd1Ops       int // served-qd1 ops per repetition
	simBlocks    int // blocks per plane of the 512 B simulator device
	simOps       int // sim-mixed-512 ops per repetition
	ttLPAs       int // timetravel/rollback address range
	ttRounds     int // history rounds written in set-up
	ttQueries    int // timetravel-4k queries per repetition
	rbPasses     int // rollback-4k whole-range passes per repetition
}

// Per-repetition op counts per second of -seconds, from the rates of the
// 2-core reference sandbox: three measured repetitions then take about
// -seconds seconds in total. The floors keep at least 1100 latency
// samples in a repetition, so p99 always has ten samples beyond it.
func sizesFor(seconds int) sizes {
	return sizes{
		servedBlocks: 64,
		pipelinedOps: max(60_000*seconds, 1100*frameOps),
		qd1Ops:       15_000 * seconds,
		simBlocks:    128,
		simOps:       max(800_000*seconds, 1100*simChunk),
		ttLPAs:       4096,
		ttRounds:     12,
		ttQueries:    max(400*seconds, 1100),
		rbPasses:     max((18*seconds+9)/10, 9),
	}
}

const (
	reps       = 3 // measured repetitions per workload, each on a fresh stack
	warmupFrac = 4 // the discarded warm-up repetition runs 1/warmupFrac of the ops
)

// env is what a workload's repetition needs from the run.
type env struct {
	seed   uint64
	sz     sizes
	scale  int     // 1 for a measured repetition, warmupFrac for the warm-up
	tr     *tracer // nil when tracing is off
	parent int     // span the repetition's spans hang under
	obsOff bool    // served workloads: SetObsEnabled(false) (obs.overhead_pct)
}

// repResult is everything one repetition measures. Host-time fields come
// from the wall clock; virt* fields and the counters are simulated time
// and device bookkeeping, and repeat exactly for a seed.
type repResult struct {
	setupNS   int64
	wallNS    int64 // timed phase
	attempted int
	failed    int
	// torn lists the stream indices of pipelined reads that came back with
	// the wrong bytes; frameDriver.recheck settles each as a torn read
	// (tornReads) or a failed op.
	torn      []int
	tornReads int
	latNS     []int64 // one host latency sample per closed-loop request

	virtRespNS int64 // Σ (done − at) over host ops
	virtOps    int64
	// Σ (now − RetentionWindowStart) over samples taken when nothing is
	// in flight: under pressure the window is a sawtooth, and its mean
	// over the timed phase is steadier than wherever the last tooth
	// left it.
	retentionNS      int64
	retentionSamples int64
	virtEnd          vclock.Time // virtual time when the timed phase ended
	windowStart      vclock.Time // RetentionWindowStart at that moment
	total            obs.Counters
	timed            obs.Counters // total minus the reading taken after set-up

	use   usage              // CPU, allocation and GC deltas over the timed phase
	layer map[string]float64 // per-layer metrics only this workload can measure
}

// workload is one named entry of the suite.
type workload struct {
	name string
	why  string
	unit string // what ops_per_s counts
	req  string // what one latency sample spans
	run  func(e *env) (*repResult, error)
}

func (r *repResult) sampleRetention(now, windowStart vclock.Time) {
	r.retentionNS += int64(now.Sub(windowStart))
	r.retentionSamples++
}

// stopwatch brackets a timed phase: wall, CPU and allocation deltas.
type stopwatch struct {
	t0  time.Time
	use usage
}

func startWatch() stopwatch {
	u := readUsage()
	return stopwatch{t0: time.Now(), use: u}
}

func (s stopwatch) stop(r *repResult) {
	r.wallNS = time.Since(s.t0).Nanoseconds()
	u := readUsage()
	r.use = usage{
		cpuNS:      u.cpuNS - s.use.cpuNS,
		mallocs:    u.mallocs - s.use.mallocs,
		allocBytes: u.allocBytes - s.use.allocBytes,
		gcPauseNS:  u.gcPauseNS - s.use.gcPauseNS,
		ticks:      u.ticks - s.use.ticks,
		stolen:     u.stolen - s.use.stolen,
	}
}

// counterFields lists every field of obs.Counters by reflection, so a
// counter added later is digested and subtracted without a change here.
func counterFields(c *obs.Counters) []*int64 {
	v := reflect.ValueOf(c).Elem()
	out := make([]*int64, v.NumField())
	for i := range out {
		out[i] = v.Field(i).Addr().Interface().(*int64)
	}
	return out
}

func subCounters(later, earlier obs.Counters) obs.Counters {
	e := counterFields(&earlier)
	for i, f := range counterFields(&later) {
		*f -= *e[i]
	}
	return later
}

// modelDigest hashes everything the simulated device decided: every
// counter, the final virtual time (which folds in every completion time
// the clock rule saw) and the window start. Two runs of one
// seed must agree on it bit for bit; it guards every virt_* metric.
// Host-side cache telemetry is part of obs.Counters and is included: the
// refcache is deterministic too.
func modelDigest(r *repResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		_, _ = h.Write(b[:]) // hash.Hash.Write never fails
	}
	for _, f := range counterFields(&r.total) {
		put(*f)
	}
	put(int64(r.virtEnd))
	put(int64(r.windowStart))
	put(r.retentionNS)
	return h.Sum64()
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// scaled applies the repetition's scale to an op count, keeping it a
// multiple of unit (frames, passes) and at least one unit.
func (e *env) scaled(n, unit int) int {
	n = n / e.scale / unit * unit
	if n < unit {
		n = unit
	}
	return n
}
