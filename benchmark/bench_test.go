package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"almanac/internal/core"
	"almanac/internal/service"
	"almanac/internal/vclock"
)

// tiny is the internal scale of the tests: every workload and every
// ladder rung runs in well under a second, on geometry small enough that
// GC, delta compression and window shedding still all happen.
var tiny = sizes{
	servedBlocks: 8,
	pipelinedOps: 2048,
	qd1Ops:       2048,
	simBlocks:    8,
	simOps:       64 * simChunk,
	ttLPAs:       256,
	ttRounds:     6,
	ttQueries:    128,
	rbPasses:     3,
}

// The op stream is the benchmark's contract with every later PR: a
// change that moves it moves every number. Pin it per seed.
func TestGoldenStreamDigest(t *testing.T) {
	golden := map[uint64][2]uint64{
		1: {0x95e44eeed2ed53fa, 0x8abd3eecec7e5683},
		2: {0x1bc432fc19ea629b, 0x5b2513daee2acb1d},
	}
	for seed, want := range golden {
		pipelined := digestOps(newServedGen(seed, 56986).stream(10_000, frameOps, frameWindow))
		qd1 := digestOps(newServedGen(seed, 56986).stream(10_000, 1, 1))
		if got := [2]uint64{pipelined, qd1}; got != want {
			t.Errorf("seed %d: first 10k ops digest to {%#x, %#x}, golden {%#x, %#x}", seed, got[0], got[1], want[0], want[1])
		}
	}
	c1, c2 := newCorpus(1, 4096), newCorpus(1, 4096)
	if !bytes.Equal(c1.page(77, 3), c2.page(77, 3)) {
		t.Error("corpus is not a pure function of the seed")
	}
	if bytes.Equal(c1.page(77, 3), newCorpus(2, 4096).page(77, 3)) {
		t.Error("corpus ignores the seed")
	}
	diff := 0
	for i, b := range c1.page(5, 1) {
		if b != c1.page(5, 0)[i] {
			diff++
		}
	}
	if diff == 0 || diff > 4096/64 {
		t.Errorf("successive versions differ in %d bytes, want 1..%d", diff, 4096/64)
	}
}

func TestStreamShape(t *testing.T) {
	g := newServedGen(3, 1000)
	ops := g.stream(4096, frameOps, frameWindow)
	for i, o := range ops {
		if o.write != (i%2 == 0) {
			t.Fatalf("op %d: write=%v, want writes and reads alternating, 8 W : 8 R a frame", i, o.write)
		}
		if o.lpa >= 1000 {
			t.Fatalf("op %d: lpa %d outside the volume", i, o.lpa)
		}
		// The hazard rule: no op on an LPA that one of the frameWindow-1
		// frames ahead of this one writes.
		frame := i / frameOps
		for _, p := range ops[max(0, frame-frameWindow+1)*frameOps : frame*frameOps] {
			if p.write && p.lpa == o.lpa {
				t.Fatalf("op %d (frame %d) touches lpa %d, which a frame still in flight writes", i, frame, o.lpa)
			}
		}
	}
	if g.redraws == 0 {
		t.Error("Zipf(1.1) over 1000 pages never met the hazard rule")
	}
	g = newServedGen(3, 1000)
	for i, o := range g.stream(100, 1, 1) {
		if o.write != (i%2 == 0) {
			t.Fatalf("qd1 op %d: write=%v, want strict alternation", i, o.write)
		}
	}
	if g.redraws != 0 {
		t.Errorf("%d redraws with one frame in flight, want none", g.redraws)
	}
	for i, o := range g.writes(100) {
		if !o.write {
			t.Fatalf("aging op %d is a read", i)
		}
	}
	// Zipf(1.1): the head is hot, the tail is reached.
	z, r := newZipf(1000, 1.1), newRNG(9, "t")
	var hits [1000]int
	for i := 0; i < 200_000; i++ {
		hits[z.draw(r)]++
	}
	if hits[0] < 5*hits[9] || hits[999] == 0 {
		t.Errorf("zipf: rank0=%d rank9=%d rank999=%d", hits[0], hits[9], hits[999])
	}
	sc := newScatter(1000)
	seen := map[uint64]bool{}
	for k := uint64(0); k < 1000; k++ {
		seen[sc.at(k)] = true
	}
	if len(seen) != 1000 {
		t.Errorf("scatter maps 1000 ranks onto %d addresses", len(seen))
	}
}

func TestStatsHelpers(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if v, beyond := percentile(s, 0.99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v, beyond := percentile(s, 0.50); v != 500 || beyond != 500 {
		t.Errorf("p50 of 1..1000 = %v with %d beyond, want 500 with 500", v, beyond)
	}
	if v, _ := percentile(nil, 0.5); v != 0 {
		t.Errorf("percentile of nothing = %v", v)
	}
	if _, _, _, ok := latencies(make([]int64, 999)); ok {
		t.Error("p99 of 999 samples reported, but only 9 lie beyond it")
	}
	if _, _, _, ok := latencies(make([]int64, 1100)); !ok {
		t.Error("p99 of 1100 samples withheld")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median(4,1,2,3) = %v", m)
	}
	if sp := spread([]float64{90, 100, 110}); math.Abs(sp-0.2) > 1e-12 {
		t.Errorf("spread(90,100,110) = %v, want 0.2", sp)
	}
	if median(nil) != 0 || spread(nil) != 0 {
		t.Error("median/spread of nothing should be 0")
	}
	if worse(metricDef{better: "higher"}, 100, 90) != 0.1 || worse(metricDef{better: "lower"}, 100, 90) != -0.1 {
		t.Error("worse() has the direction wrong")
	}
	if c := calibrate(); c <= 0 {
		t.Errorf("calibration loop took %v ns", c)
	}
	if rss := peakRSSMiB(); rss <= 0 {
		t.Errorf("peak RSS %v MiB", rss)
	}
}

// BENCHMARK.json repeats the metric and workload tables for the driver;
// keep the two in step, and inside the driver's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("%s name %q is malformed or used twice", kind, n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program, want 2..8", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check("workload", w.name)
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program has %q (or the why differs)", i, spec.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	same := func(kind string, js []metric, defs []metricDef, limit int, bounded bool) {
		if len(js) != len(defs) || len(defs) < 1 || len(defs) > limit {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program, want 1..%d", len(js), kind, len(defs), limit)
		}
		for i, d := range defs {
			check(kind, d.name)
			if !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
				t.Errorf("%s: unit %q or better %q malformed", d.name, d.unit, d.better)
			}
			m := js[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, program has %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s: bound in BENCHMARK.json and program disagree or lie outside (0, 0.25]", d.name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, 16, true)
	same("per_layer", spec.PerLayer, perLayer, 128, false)
	if !seen["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d or paths %v out of contract", spec.RunSeconds, spec.Paths)
	}
	for _, n := range exactPerLayer {
		if !seen[n] {
			t.Errorf("exact per-layer metric %q is not declared", n)
		}
	}
}

// Every workload, at the tiny scale: nothing fails, and the simulated
// side is a pure function of the seed.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			var digests [2]uint64
			for i := range digests {
				r, err := w.run(&env{seed: 7, sz: tiny, scale: 1})
				if err != nil {
					t.Fatal(err)
				}
				if r.attempted == 0 || r.failed != 0 {
					t.Fatalf("%d of %d ops failed the shadow-model check", r.failed, r.attempted)
				}
				if r.wallNS <= 0 || r.setupNS <= 0 || len(r.latNS) == 0 || r.virtOps == 0 || r.retentionSamples == 0 {
					t.Fatalf("repetition left measurements empty: %+v", r)
				}
				if r.total.HostPageWrites == 0 || r.total.FlashPrograms < r.total.HostPageWrites {
					t.Fatalf("implausible counters: %+v", r.total)
				}
				digests[i] = modelDigest(r)
			}
			if digests[0] != digests[1] {
				t.Errorf("two repetitions of one seed disagree on the model digest: %x vs %x", digests[0], digests[1])
			}
			other, err := w.run(&env{seed: 8, sz: tiny, scale: warmupFrac})
			if err != nil {
				t.Fatal(err)
			}
			if other.failed != 0 {
				t.Fatalf("seed 8, warm-up scale: %d ops failed", other.failed)
			}
		})
	}
}

func TestRollbackTarget(t *testing.T) {
	// 12 rounds: back one round at a time from the newest, then ping-pong
	// between the middle round and the oldest.
	want := []int{10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 6, 0, 6, 0, 6, 0, 6}
	for p, k := range want {
		if got := rollbackTarget(p, 12); got != k {
			t.Errorf("pass %d of 12 rounds rolls back to round %d, want %d", p, got, k)
		}
	}
	for p, k := range []int{1, 0, 1, 0, 1} {
		if got := rollbackTarget(p, 3); got != k {
			t.Errorf("pass %d of 3 rounds rolls back to round %d, want %d", p, got, k)
		}
	}
}

// The Versions check must tell a real history from pages that merely
// belong to the lineage.
func TestMatchHistory(t *testing.T) {
	c := newCorpus(1, 512)
	const lpa = 3
	s := newSimShadow(8)
	for k := 0; k < 20; k++ { // writes 0..19 stamped 100, 200, …
		s.wrote(lpa, vclock.Time(100*(k+1)))
	}
	ver := func(k int, live bool) core.Version {
		return core.Version{TS: vclock.Time(100 * (k + 1)), Data: c.page(lpa, k), Live: live}
	}
	old := func(k int, ts vclock.Time) core.Version { // a write whose stamp the ring no longer holds
		return core.Version{TS: ts, Data: c.page(lpa, k)}
	}
	for _, tc := range []struct {
		name string
		vers []core.Version
		ok   bool
	}{
		{"live only", []core.Version{ver(19, true)}, true},
		{"full recent history", []core.Version{ver(19, true), ver(18, false), ver(17, false)}, true},
		{"holes", []core.Version{ver(19, true), ver(16, false), ver(13, false)}, true},
		{"reaches past the ring", []core.Version{ver(19, true), ver(12, false), old(9, 1000), old(2, 300)}, true},
		{"empty", nil, false},
		{"first not live", []core.Version{ver(19, false)}, false},
		{"live is not the newest write", []core.Version{ver(18, true)}, false},
		{"same version twice", []core.Version{ver(19, true), ver(18, false), ver(18, false)}, false},
		{"out of order", []core.Version{ver(19, true), ver(16, false), ver(17, false)}, false},
		{"recent stamp nobody wrote", []core.Version{ver(19, true), {TS: 1850, Data: c.page(lpa, 18)}}, false},
		{"right stamp, wrong content", []core.Version{ver(19, true), {TS: 1900, Data: c.page(lpa, 17)}}, false},
		{"old content twice: writes 9 and 1 carry it", []core.Version{ver(19, true), old(1, 200), old(1, 100)}, true},
		{"old content three times: only two writes carry it", []core.Version{ver(19, true), old(1, 300), old(1, 200), old(1, 100)}, false},
		{"more entries than writes", make([]core.Version, 21), false},
		{"foreign page", []core.Version{ver(19, true), {TS: 500, Data: c.page(lpa+1, 4)}}, false},
	} {
		if got := s.matchHistory(tc.vers, c, lpa); got != tc.ok {
			t.Errorf("%s: matchHistory = %v, want %v", tc.name, got, tc.ok)
		}
	}
	if s.matchHistory([]core.Version{ver(0, true)}, c, lpa+1) {
		t.Error("an LPA never written has a history")
	}
}

// tearingBatcher answers every read with the page the corpus holds for its
// LPA at version cur[lpa], except that a read in a multi-op frame of a torn
// LPA comes back with another lineage's page, and a read of a lost LPA
// always does.
type tearingBatcher struct {
	c          *corpus
	cur        map[uint64]int
	torn, lost map[uint64]bool
	out        [frameWindow][]service.BatchResult
}

func (b *tearingBatcher) submit(slot int, ops []service.BatchOp) error {
	b.out[slot] = b.out[slot][:0]
	for _, op := range ops {
		res := service.BatchResult{Done: op.At.Add(vclock.Microsecond)}
		switch {
		case op.Kind == service.KindWrite:
			b.cur[op.LPA]++
		case b.lost[op.LPA], b.torn[op.LPA] && len(ops) > 1:
			res.Data = b.c.page(op.LPA+1, 0)
		default:
			res.Data = b.c.page(op.LPA, b.cur[op.LPA])
		}
		b.out[slot] = append(b.out[slot], res)
	}
	return nil
}

func (b *tearingBatcher) wait(slot int) ([]service.BatchResult, error) { return b.out[slot], nil }

// A read that comes back wrong while frames are in flight and right when
// read again alone is a torn read, not a failure; one that stays wrong
// failed. Neither stops the run or leaves the virtual-time sums.
func TestRecheck(t *testing.T) {
	in := newServedInput(3, 512, 64, 64*frameOps, frameOps, frameWindow)
	// The first LPA the stream reads is torn, the last other one lost.
	reads := map[uint64]int{}
	tornLPA, lostLPA := uint64(math.MaxUint64), uint64(0)
	for _, o := range in.timed {
		if o.write {
			continue
		}
		reads[uint64(o.lpa)]++
		if tornLPA == math.MaxUint64 {
			tornLPA = uint64(o.lpa)
		} else if uint64(o.lpa) != tornLPA {
			lostLPA = uint64(o.lpa)
		}
	}
	if reads[tornLPA] == 0 || reads[lostLPA] == 0 || tornLPA == lostLPA {
		t.Fatalf("stream reads too few LPAs: %v", reads)
	}
	b := &tearingBatcher{c: in.c, cur: map[uint64]int{}, torn: map[uint64]bool{tornLPA: true}, lost: map[uint64]bool{lostLPA: true}}
	d := &frameDriver{b: b, c: in.c, clock: epoch}
	if err := d.setUp(in); err != nil {
		t.Fatal(err)
	}
	for lpa := range b.cur {
		b.cur[lpa]-- // the prefill wrote version 0
	}
	var r repResult
	if err := d.drive(in.timed, frameOps, frameWindow, &r); err != nil {
		t.Fatal(err)
	}
	if want := reads[tornLPA] + reads[lostLPA]; len(r.torn) != want || r.failed != 0 || r.virtOps != int64(len(in.timed)) {
		t.Fatalf("drive noted %d wrong reads, %d failed, %d virtual ops; want %d, 0, %d", len(r.torn), r.failed, r.virtOps, want, len(in.timed))
	}
	if err := d.recheck(in.timed, &r); err != nil {
		t.Fatal(err)
	}
	if r.tornReads != reads[tornLPA] || r.failed != reads[lostLPA] || r.torn != nil {
		t.Errorf("recheck: %d torn, %d failed, %d left; want %d, %d, 0", r.tornReads, r.failed, len(r.torn), reads[tornLPA], reads[lostLPA])
	}
}

func TestLadderTiny(t *testing.T) {
	e := &env{seed: 5, sz: tiny, scale: 1}
	res := &workloadResult{layer: map[string]entry{}}
	if err := servedExperiments(e, res, 100_000); err != nil {
		t.Fatal(err)
	}
	res.seal(true)
	if res.Failed != 0 || len(res.PerLayer) != len(perLayer) {
		t.Fatalf("%d ops failed, %d of %d per-layer metrics present", res.Failed, len(res.PerLayer), len(perLayer))
	}
	// Every rung executed the same op count, after the obs-off repetition.
	if want := e.scaled(tiny.pipelinedOps, frameOps) + len(rungNames)*ladderOps(e); res.Attempted != want {
		t.Errorf("obs-off run and ladder attempted %d ops over %d rungs, want %d", res.Attempted, len(rungNames), want)
	}
	below := 0.0
	for _, rung := range rungNames {
		ns, _ := find(res.PerLayer, "ladder."+rung+".ns_per_op")
		self, _ := find(res.PerLayer, "ladder."+rung+".self_ns_per_op")
		if ns.Value <= 0 || math.Abs(self.Value-(ns.Value-below)) > 1e-6 {
			t.Errorf("rung %s: ns_per_op %v, self %v, rung below %v", rung, ns.Value, self.Value, below)
		}
		below = ns.Value
	}
	if e, ok := find(res.PerLayer, "obs.overhead_pct"); !ok || e.Samples == 0 {
		t.Error("obs.overhead_pct was not measured")
	}
}

func TestParseArgs(t *testing.T) {
	for _, tc := range []struct {
		args  string
		trace bool
		bad   bool
	}{
		{"--workload served-qd1 --seed 3 --seconds 10 --trace 0", false, false},
		{"--workload served-qd1 --seed 3 --seconds 10 --trace 1", true, false},
		{"-trace", true, false},
		{"-trace -seed 2", true, false},
		{"", false, false},
		{"-workload nosuch", false, true},
		{"-seconds 0", false, true},
		{"-seconds 61", false, true},
		{"stray", false, true},
	} {
		o, err := parseArgs(strings.Fields(tc.args))
		if (err != nil) != tc.bad {
			t.Errorf("parseArgs(%q): err %v, want failure=%v", tc.args, err, tc.bad)
		}
		if err == nil && o.trace != tc.trace {
			t.Errorf("parseArgs(%q): trace=%v, want %v", tc.args, o.trace, tc.trace)
		}
	}
}

// The driver's form, end to end, on the cheapest workload: the last line
// of standard output is the contract's JSON object, with every
// end-to-end metric untraced and every per-layer metric traced.
func TestDriverLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		out := t.TempDir()
		var buf bytes.Buffer
		err := run([]string{"--workload", "sim-mixed-512", "--seed", "4", "--seconds", "1", "--trace", trace, "-out", out}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var got struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Fatalf("trace %s: correct/attempted/failed wrong in %s", trace, lines[len(lines)-1])
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics printed, want %d", trace, len(got.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := got.Metrics[d.name]
			if !ok || m.Value == nil || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s missing or malformed", trace, d.name)
			} else if trace == "0" && *m.Value == 0 {
				t.Errorf("end-to-end metric %s reads 0", d.name)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "result.json")); err != nil {
			t.Error(err)
		}
		if _, err := os.Stat(filepath.Join(out, "trace.json")); (err == nil) != (trace == "1") {
			t.Errorf("trace %s: trace.json presence wrong (%v)", trace, err)
		}
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(tput, spread, wa, digest float64, failed int) *report {
		w := &workloadResult{Workload: "w", Attempted: 1000, Failed: failed}
		for _, d := range endToEnd {
			e := entry{Name: d.name, Value: 1}
			switch d.name {
			case "ops_per_s":
				e.Value, e.Spread = tput, spread
			case "virt_write_amp":
				e.Value = wa
			}
			w.EndToEnd = append(w.EndToEnd, e)
		}
		for _, n := range exactPerLayer {
			v := 1.0
			if n == "core.model_digest" {
				v = digest
			}
			w.PerLayer = append(w.PerLayer, entry{Name: n, Value: v})
		}
		return &report{Workloads: []*workloadResult{w}}
	}
	slowHost := mk(700, 0, 1.5, 42, 0)
	slowHost.Workloads[0].PerLayer = append(slowHost.Workloads[0].PerLayer, entry{Name: "host.mem_ns", Value: 1300})
	fastHost := mk(1000, 0, 1.5, 42, 0)
	fastHost.Workloads[0].PerLayer = append(fastHost.Workloads[0].PerLayer, entry{Name: "host.mem_ns", Value: 1000})
	bound := endToEnd[1].bound // of ops_per_s
	for _, tc := range []struct {
		name            string
		first, second   *report
		bad, unresolved int
	}{
		{"identical", mk(1000, 0, 1.5, 42, 0), mk(1000, 0, 1.5, 42, 0), 0, 0},
		{"better", mk(1000, 0, 1.5, 42, 0), mk(2000, 0, 1.5, 42, 0), 0, 0},
		{"within bound", mk(1000, 0, 1.5, 42, 0), mk(1000*(1-bound/2), 0, 1.5, 42, 0), 0, 0},
		{"beyond bound", mk(1000, 0, 1.5, 42, 0), mk(1000*(1-2*bound), 0, 1.5, 42, 0), 1, 0},
		{"beyond bound, but the repetitions spread wider", mk(1000, 0, 1.5, 42, 0), mk(1000*(1-2*bound), 1.5*bound, 1.5, 42, 0), 0, 1},
		{"within bound, but the repetitions spread wider", mk(1000, 1.5*bound, 1.5, 42, 0), mk(1000, 0, 1.5, 42, 0), 0, 1},
		{"beyond bound, but the host's memory got slower by more", fastHost, slowHost, 0, 4},
		{"exact end-to-end differs", mk(1000, 0, 1.5, 42, 0), mk(1000, 0, 1.5000001, 42, 0), 1, 0},
		{"digest differs", mk(1000, 0, 1.5, 42, 0), mk(1000, 0, 1.5, 43, 0), 1, 0},
		{"second set fails more ops", mk(1000, 0, 1.5, 42, 0), mk(1000, 0, 1.5, 42, 3), 1, 0},
		{"second set fails fewer ops", mk(1000, 0, 1.5, 42, 3), mk(1000, 0, 1.5, 42, 0), 0, 0},
	} {
		var buf bytes.Buffer
		if bad, unresolved := compareSets(tc.first, tc.second, &buf); bad != tc.bad || unresolved != tc.unresolved {
			t.Errorf("%s: %d failed and %d unresolved, want %d and %d\n%s", tc.name, bad, unresolved, tc.bad, tc.unresolved, buf.String())
		}
	}
}
