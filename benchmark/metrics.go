package main

import (
	"fmt"
	"math"
	"os"
)

// metricDef names one metric, its unit and which way is better. bound is
// the share of the parent's median by which an end-to-end metric may
// worsen before a change is a regression (0 for per-layer metrics, which
// have none). BENCHMARK.json repeats these tables; a test keeps the two
// in step.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// Every run prints every end-to-end metric, so their names are generic
// and the workload gives them meaning (see the README's table): ops are
// host ops, queries or rolled-back pages; a latency sample is one
// closed-loop request — a frame, an op, a 1024-op chunk, a query, a
// 32-page RollBack.
//
// The host-time bounds (set-up, throughput, both latencies) all sit at the
// driver's cap of 25 %: on a calm host the spread of ten seeds (distance
// between the quartiles as a share of the median) is 2–8 %, but the shared
// host has stretches of minutes in which unchanged code runs a fifth to a
// third slower, and one bound serves a metric on every workload. The
// README's "Where the bounds come from" has the measured tables and names
// the metric × workload pairs that no bound under the cap resolves.
//
// The bounded tail is p95, not p99. On served-qd1 the latency curve is a
// cliff at p99 (p98.5 117 µs, p99 139, p99.5 214, p99.9 623: the 1.2 % of
// ops that trigger garbage collection start there), so when a neighbour
// on the shared host delays another 0.7 % of the ops by a millisecond the
// p99 reads 300–450 µs on unchanged code (a spread of 82 % over ten
// seeds) while p95 moves by a few per cent. p99 is still measured and
// reported, without a bound, as client.lat_p99_us.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p95_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.08},
	{"virt_write_amp", "ratio", "lower", 0.07},
	{"virt_resp_us", "us", "lower", 0.20},
	{"virt_retention_s", "s", "higher", 0.25},
}

// exactEndToEnd are simulated-time metrics: they must repeat bit for bit
// when the seed is held (their bounds above only absorb seed-to-seed
// variation in the driver's ten-seed check).
var exactEndToEnd = map[string]bool{"virt_write_amp": true, "virt_resp_us": true, "virt_retention_s": true}

// perLayer lists the per-layer metrics in print order. exact ones are
// device bookkeeping and must repeat bit for bit for a seed. A metric of
// a layer the workload bypasses reads 0 (almaproto.frames_in on
// sim-mixed-512 is, truthfully, zero).
var perLayer = func() []metricDef {
	defs := []metricDef{
		// The closed-loop client's own p99 (median of repetitions), from the
		// untraced repetitions like every end-to-end metric; see endToEnd.
		{"client.lat_p99_us", "us", "lower", 0},
		{"flash.programs", "count", "lower", 0},
		{"flash.reads", "count", "lower", 0},
		{"flash.erases", "count", "lower", 0},
		{"ftl.write_amp", "ratio", "lower", 0},
		{"ftl.gc_runs", "count", "lower", 0},
		{"ftl.gc_page_moves", "count", "lower", 0},
		{"core.deltas_created", "count", "higher", 0},
		{"core.delta_pages_written", "count", "lower", 0},
		{"core.expired_reclaimed", "count", "higher", 0},
		{"core.window_drops", "count", "lower", 0},
		{"core.idle_compressions", "count", "higher", 0},
		{"core.refcache_hit_ratio", "ratio", "higher", 0},
		{"core.refcache_evictions", "count", "lower", 0},
		{"core.model_digest", "hash48", "higher", 0},
		{"core.write_ns", "ns", "lower", 0},
		{"core.read_ns", "ns", "lower", 0},
		{"core.versions_ns", "ns", "lower", 0},
		{"gen.redraws", "count", "lower", 0},
		{"array.shard_imbalance", "ratio", "lower", 0},
		{"array.torn_reads", "count", "lower", 0},
		{"service.batch_wall_p50_us", "us", "lower", 0},
		{"service.batch_wall_p99_us", "us", "lower", 0},
		{"almaproto.frames_in", "count", "lower", 0},
		{"almaproto.wire_bytes_per_op", "B", "lower", 0},
		{"almaproto.frames_per_write", "ratio", "higher", 0},
		{"almaproto.qd1_read_p50_us", "us", "lower", 0},
		{"almaproto.qd1_write_p50_us", "us", "lower", 0},
		{"timekits.addrqueryall_p50_us", "us", "lower", 0},
		{"timekits.addrquery_p50_us", "us", "lower", 0},
		{"timekits.timequeryrange_p50_us", "us", "lower", 0},
		{"timekits.rollback_us_per_page", "us", "lower", 0},
		{"timekits.versions_per_query", "count", "higher", 0},
		{"timekits.virt_query_ms", "ms", "lower", 0},
		{"obs.overhead_pct", "%", "lower", 0},
		{"go.allocs_per_op", "count", "lower", 0},
		{"go.alloc_bytes_per_op", "B", "lower", 0},
		{"go.gc_pause_ms", "ms", "lower", 0},
		{"go.cpu_us_per_op", "us", "lower", 0},
		{"host.calib_ns", "ns", "lower", 0},
		{"host.mem_ns", "ns", "lower", 0},
		{"host.steal_pct", "%", "lower", 0},
		{"trace.overhead_pct", "%", "lower", 0},
		{"ladder.sum_check_pct", "%", "lower", 0},
	}
	for _, rung := range rungNames {
		for _, m := range []string{"ns_per_op", "cpu_ns_per_op", "self_ns_per_op"} {
			defs = append(defs, metricDef{"ladder." + rung + "." + m, "ns", "lower", 0})
		}
	}
	return defs
}()

// exactPerLayer must be identical between two runs of one seed.
var exactPerLayer = []string{
	"flash.programs", "flash.reads", "flash.erases",
	"ftl.write_amp", "ftl.gc_runs", "ftl.gc_page_moves",
	"core.deltas_created", "core.delta_pages_written", "core.expired_reclaimed",
	"core.window_drops", "core.idle_compressions", "core.model_digest",
	"almaproto.frames_in", "timekits.virt_query_ms", "gen.redraws",
}

// entry is one reported value: the median over repetitions, the min–max
// spread of those repetitions as a share of the median, and how many
// samples each repetition's figure rests on.
type entry struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Spread  float64   `json:"rep_spread"`
	Reps    []float64 `json:"reps"`
	Samples int       `json:"samples"`
}

// workloadResult is everything one workload reports. Per-layer values
// are gathered in layer and put in perLayer's order by seal.
type workloadResult struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Reps      int     `json:"reps"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	TornReads int     `json:"torn_reads"` // see frameDriver.recheck; not failures
	Correct   bool    `json:"correct"`
	EndToEnd  []entry `json:"end_to_end"`
	PerLayer  []entry `json:"per_layer"`

	layer map[string]entry
}

// summarize folds a workload's measured repetitions (and the set-up time
// of its warm-up) into end-to-end and per-layer entries.
func summarize(w *workload, seed uint64, warmup *repResult, rs []*repResult, calibNS float64) (*workloadResult, error) {
	res := &workloadResult{Workload: w.name, Seed: seed, Reps: len(rs), layer: map[string]entry{}}
	setups := []float64{float64(warmup.setupNS) / 1e9}
	var tput, p50s, p95s, wa, resp, ret []float64
	layer := map[string][]float64{}
	first := modelDigest(rs[0])
	torn := 0
	for i, r := range rs {
		res.Attempted += r.attempted
		res.Failed += r.failed
		torn += r.tornReads
		setups = append(setups, float64(r.setupNS)/1e9)
		tput = append(tput, float64(r.attempted)/float64(r.wallNS)*1e9)
		p50, p95, p99, ok := latencies(r.latNS)
		if !ok {
			return nil, fmt.Errorf("%s: p99 of %d latency samples has fewer than %d beyond it", w.name, len(r.latNS), minBeyond)
		}
		p50s, p95s = append(p50s, p50), append(p95s, p95)
		wa = append(wa, ratio(r.total.FlashPrograms, r.total.HostPageWrites))
		resp = append(resp, ratio(r.virtRespNS, r.virtOps)/1e3)
		ret = append(ret, ratio(r.retentionNS, r.retentionSamples)/1e9)
		digest := modelDigest(r)
		if digest != first {
			// Reported, not fatal: core.model_digest's spread shows it and
			// -selfcheck fails on it.
			fmt.Fprintf(os.Stderr, "benchmark: %s: repetition %d diverged from repetition 0 on one seed (model digest %x != %x)\n", w.name, i, digest, first)
		}

		t := r.timed
		ops := float64(r.attempted)
		for k, v := range map[string]float64{
			"client.lat_p99_us":        p99,
			"flash.programs":           float64(t.FlashPrograms),
			"flash.reads":              float64(t.FlashReads),
			"flash.erases":             float64(t.FlashErases),
			"ftl.write_amp":            ratio(t.FlashPrograms, t.HostPageWrites),
			"ftl.gc_runs":              float64(t.GCRuns),
			"ftl.gc_page_moves":        float64(t.GCWrites),
			"core.deltas_created":      float64(t.DeltasCreated),
			"core.delta_pages_written": float64(t.DeltaPagesWritten),
			"core.expired_reclaimed":   float64(t.ExpiredReclaimed),
			"core.window_drops":        float64(t.WindowDrops),
			"core.idle_compressions":   float64(t.IdleCompressions),
			"core.refcache_hit_ratio":  ratio(t.RefCacheHits, t.RefCacheHits+t.RefCacheMisses),
			"core.refcache_evictions":  float64(t.RefCacheEvictions),
			"core.model_digest":        float64(digest & (1<<48 - 1)),
			"go.allocs_per_op":         float64(r.use.mallocs) / ops,
			"go.alloc_bytes_per_op":    float64(r.use.allocBytes) / ops,
			"go.gc_pause_ms":           float64(r.use.gcPauseNS) / 1e6,
			"go.cpu_us_per_op":         float64(r.use.cpuNS) / ops / 1e3,
			"host.calib_ns":            calibNS,
			"host.steal_pct":           ratio(int64(r.use.stolen), int64(r.use.ticks)) * 100,
		} {
			layer[k] = append(layer[k], v)
		}
		for k, v := range r.layer {
			layer[k] = append(layer[k], v)
		}
	}
	res.Correct = res.Failed == 0
	last := rs[len(rs)-1]
	vals := map[string][]float64{
		"setup_s": setups, "ops_per_s": tput, "lat_p50_us": p50s, "lat_p95_us": p95s,
		"peak_rss_mb": {peakRSSMiB()}, "virt_write_amp": wa, "virt_resp_us": resp, "virt_retention_s": ret,
	}
	samples := map[string]int{
		"setup_s": 1, "ops_per_s": last.attempted, "lat_p50_us": len(last.latNS), "lat_p95_us": len(last.latNS),
		"peak_rss_mb": 1, "virt_write_amp": int(last.total.HostPageWrites), "virt_resp_us": int(last.virtOps), "virt_retention_s": int(last.retentionSamples),
	}
	for _, d := range endToEnd {
		res.EndToEnd = append(res.EndToEnd, newEntry(d, vals[d.name], samples[d.name]))
	}
	for name, v := range layer {
		res.set(name, v, last.attempted)
	}
	res.tornSeen(torn)
	return res, nil
}

func newEntry(d metricDef, reps []float64, samples int) entry {
	return entry{Name: d.name, Unit: d.unit, Value: median(reps), Spread: spread(reps), Reps: reps, Samples: samples}
}

// set records a per-layer metric; the name must be declared in perLayer.
func (w *workloadResult) set(name string, reps []float64, samples int) {
	for _, d := range perLayer {
		if d.name == name {
			w.layer[name] = newEntry(d, reps, samples)
			return
		}
	}
	panic("benchmark: per-layer metric " + name + " is not declared in perLayer")
}

// tornSeen adds n torn reads to the workload's count. array.torn_reads is
// that count over every repetition and rung so far, not a median: one torn
// read in three repetitions must show.
func (w *workloadResult) tornSeen(n int) {
	w.TornReads += n
	w.set("array.torn_reads", []float64{float64(w.TornReads)}, w.Attempted)
}

// seal orders the gathered per-layer metrics for output. With all set,
// every declared metric appears, reading 0 where the workload bypasses
// the layer — the driver's traced run wants the full list every time.
func (w *workloadResult) seal(all bool) {
	w.PerLayer = w.PerLayer[:0]
	for _, d := range perLayer {
		e, ok := w.layer[d.name]
		if !ok && all {
			e = newEntry(d, []float64{0}, 0)
		}
		if ok || all {
			w.PerLayer = append(w.PerLayer, e)
		}
	}
}

func find(list []entry, name string) (entry, bool) {
	for _, e := range list {
		if e.Name == name {
			return e, true
		}
	}
	return entry{}, false
}

// worse reports by what share of a the value b is worse, given which way
// is better (negative when b is better).
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
