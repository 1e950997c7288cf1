// Command benchmark is the repository's benchmark: one seeded, closed-loop
// program that drives five workloads through the public API of every
// layer (flash → ftl → core → array → service → almaproto → loopback TCP),
// checks every result against its own shadow model, and prints every
// metric by name with its unit. See README.md in this directory.
//
//	go run ./benchmark                       # every workload, end-to-end metrics
//	go run ./benchmark -trace                # plus the traced run: per-layer metrics, ladder, out/trace.json
//	go run ./benchmark -selfcheck            # the untraced suite twice; fails unless the two sets agree
//	go run ./benchmark -workload sim-mixed-512 -seed 7 -seconds 10 -trace 0   # the driver's form
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

var workloads = []*workload{
	{
		name: "served-pipelined",
		why:  "the stack as almanacd -shards 4 -volumes assembles it, obs on, 16-op frames of 8W:8R, 8 in flight, Zipf LPAs: every layer from flash to the socket works and reads queue behind programs and GC",
		unit: "ops", req: "16-op frame",
		run: func(e *env) (*repResult, error) { return runServed(e, e.sz.pipelinedOps, frameOps, frameWindow) },
	},
	{
		name: "served-qd1",
		why:  "same stack, one op per frame, one frame in flight: nothing to batch or coalesce, so wake-ups, goroutine hops and syscalls dominate and the device does little",
		unit: "ops", req: "op",
		run: func(e *env) (*repResult, error) { return runServed(e, e.sz.qd1Ops, 1, 1) },
	},
	{
		name: "sim-mixed-512",
		why:  "core.TimeSSD called directly, 512 B pages, 8W:7R:1Versions: no almaproto, service or array and little byte work, so it isolates the simulator's per-op constant factor",
		unit: "ops", req: "1024-op chunk",
		run: runSim,
	},
	{
		name: "timetravel-4k",
		why:  "TimeKits queries over 49k retained versions in delta chains, 48x the refcache: the read side of core (chain walk, delta decode, LZF, refcache) the write-heavy workloads barely touch",
		unit: "queries", req: "query",
		run: runTimeTravel,
	},
	{
		name: "rollback-4k",
		why:  "whole-range RollBack passes over the same history, then a read-back: recovery, the paper's reason to exist, as a write-heavy time-travel path",
		unit: "pages", req: "32-page RollBack",
		run: runRollback,
	},
}

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	selfcheck bool
	out       string
}

// parseArgs accepts both `-trace` as a bare switch and the driver's
// `--trace 0|1` with a separate value, which package flag cannot parse
// for a boolean.
func parseArgs(args []string) (options, error) {
	var norm []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			norm = append(norm, "-trace="+args[i+1])
			i++
			continue
		}
		norm = append(norm, args[i])
	}
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload and print the driver's JSON line (default: the whole suite)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&o.seconds, "seconds", 10, "size of a run: op counts are fixed multiples of it, so three repetitions take about this long on the reference host")
	fs.BoolVar(&o.trace, "trace", false, "also make the traced run: per-layer metrics, the ladder, out/trace.json")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced suite twice and fail unless the two sets agree within the bounds")
	fs.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for result.json and trace.json")
	if err := fs.Parse(norm); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds < 1 || o.seconds > 60 {
		return o, fmt.Errorf("-seconds %d: want 1 to 60", o.seconds)
	}
	if o.workload != "" && findWorkload(o.workload) == nil {
		return o, fmt.Errorf("-workload %q: want one of %s", o.workload, strings.Join(workloadNames(), ", "))
	}
	return o, nil
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runWorkload is the measurement procedure of every workload: one
// discarded warm-up repetition at a quarter of the length, then reps
// measured repetitions, each on a fresh stack with the same seed; with
// trace, one more repetition with spans on (end-to-end numbers never come
// from it) and the workload's extra per-layer experiments.
func runWorkload(w *workload, o options, sz sizes, calibNS float64, tr *tracer) (*workloadResult, error) {
	memNS := memCalibrate()
	resetPeakRSS()
	warm, err := w.run(&env{seed: o.seed, sz: sz, scale: warmupFrac})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	releaseMemory()
	var rs []*repResult
	for i := 0; i < reps; i++ {
		r, err := w.run(&env{seed: o.seed, sz: sz, scale: 1})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		releaseMemory()
		rs = append(rs, r)
	}
	res, err := summarize(w, o.seed, warm, rs, calibNS)
	if err != nil {
		return nil, err
	}
	// The memory yardstick brackets the measured repetitions (after the
	// peak RSS has been read: its arena is not the workload's memory).
	res.set("host.mem_ns", []float64{(memNS + memCalibrate()) / 2}, 1)
	if tr == nil {
		res.seal(false)
		return res, nil
	}

	root := tr.begin(w.name, -1, 0)
	traced, err := w.run(&env{seed: o.seed, sz: sz, scale: 1, tr: tr, parent: root})
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	releaseMemory()
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Correct = res.Failed == 0
	for name, v := range traced.layer {
		res.set(name, []float64{v}, traced.attempted)
	}
	res.tornSeen(traced.tornReads)
	untraced, _ := find(res.EndToEnd, "ops_per_s")
	tput := float64(traced.attempted) / float64(traced.wallNS) * 1e9
	res.set("trace.overhead_pct", []float64{(untraced.Value - tput) / untraced.Value * 100}, traced.attempted)
	if w.name == "served-pipelined" {
		if err := servedExperiments(&env{seed: o.seed, sz: sz, scale: 1}, res, untraced.Value); err != nil {
			return nil, err
		}
	}
	// The driver's traced line carries every declared metric; the suite's
	// table only the ones this workload has.
	res.seal(o.workload != "")
	return res, nil
}

// report is the content of out/result.json.
type report struct {
	Schema     string            `json:"schema"`
	Host       map[string]string `json:"host"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"nproc"`
	CalibNS    float64           `json:"host_calib_ns"`
	Seed       uint64            `json:"seed"`
	Seconds    int               `json:"seconds"`
	Reps       int               `json:"reps"`
	Sizes      map[string]int    `json:"op_counts_per_rep"`
	Workloads  []*workloadResult `json:"workloads"`
}

func newReport(o options, sz sizes, calibNS float64) *report {
	return &report{
		Schema:     "almanac-benchmark/v1",
		Host:       map[string]string{"cpu": cpuModel(), "go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH},
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CalibNS:    calibNS,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Reps:       reps,
		Sizes: map[string]int{
			"served-pipelined": sz.pipelinedOps, "served-qd1": sz.qd1Ops, "sim-mixed-512": sz.simOps,
			"timetravel-4k": sz.ttQueries, "rollback-4k": sz.rbPasses * sz.ttLPAs,
		},
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// suite runs the selected workloads and returns the report.
func suite(o options, sz sizes, tr *tracer, log io.Writer) (*report, error) {
	calibNS := calibrate()
	rep := newReport(o, sz, calibNS)
	for _, w := range workloads {
		if o.workload != "" && w.name != o.workload {
			continue
		}
		res, err := runWorkload(w, o, sz, calibNS, tr)
		if err != nil {
			return nil, err
		}
		printWorkload(log, w, res)
		rep.Workloads = append(rep.Workloads, res)
	}
	return rep, nil
}

func printWorkload(out io.Writer, w *workload, res *workloadResult) {
	fmt.Fprintf(out, "\n== %s  seed %d, %d reps + warm-up, %d %s attempted, %d failed, failed_ratio %.3g, %d torn reads read again ==\n",
		res.Workload, res.Seed, res.Reps, res.Attempted, w.unit, res.Failed, float64(res.Failed)/float64(res.Attempted), res.TornReads)
	fmt.Fprintf(out, "   ops = %s; one latency sample = one %s; closed loop, 1 client goroutine, 1 connection\n", w.unit, w.req)
	fmt.Fprintf(out, "   %-34s %16s %-6s %8s %10s %6s\n", "end-to-end (median of reps)", "value", "unit", "min-max", "samples", "bound")
	for i, e := range res.EndToEnd {
		fmt.Fprintf(out, "   %-34s %16.4f %-6s %7.2f%% %10d %5.0f%%\n", e.Name, e.Value, e.Unit, e.Spread*100, e.Samples, endToEnd[i].bound*100)
	}
	if len(res.PerLayer) == 0 {
		return
	}
	fmt.Fprintf(out, "   %-34s %16s %-6s %8s %10s\n", "per-layer", "value", "unit", "min-max", "samples")
	for _, e := range res.PerLayer {
		fmt.Fprintf(out, "   %-34s %16.4f %-6s %7.2f%% %10d\n", e.Name, e.Value, e.Unit, e.Spread*100, e.Samples)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// driverLine is the contract's last line of standard output.
func driverLine(res *workloadResult, trace bool) string {
	list := res.EndToEnd
	if trace {
		list = res.PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, e := range list {
		metrics[e.Name] = mv{e.Value, e.Unit}
	}
	b, err := json.Marshal(map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics})
	if err != nil {
		panic(err) // plain numbers, strings and bools always marshal
	}
	return string(b)
}

func run(args []string, stdout io.Writer) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	sz := sizesFor(o.seconds)
	if o.selfcheck {
		return selfcheck(o, sz, stdout)
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	fmt.Fprintf(stdout, "almanac benchmark: seed %d, -seconds %d, GOMAXPROCS %d, %s, %s\n", o.seed, o.seconds, runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	rep, err := suite(o, sz, tr, stdout)
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(o.out, "result.json"), rep); err != nil {
		return err
	}
	if tr != nil {
		if err := tr.write(filepath.Join(o.out, "trace.json")); err != nil {
			return err
		}
	}
	if o.workload != "" {
		fmt.Fprintln(stdout, driverLine(rep.Workloads[0], o.trace))
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		os.Exit(1)
	}
}
