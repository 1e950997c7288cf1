// Command almanac runs the Project Almanac evaluation: every figure and
// table of the paper, reproduced on the simulated TimeSSD.
//
// Usage:
//
//	almanac [-scale quick|standard] [-seed N] [-j N] [-list] [experiment ...]
//
// With no experiment arguments it runs everything. -list enumerates the
// harness's experiment table (harness.Names): the paper figures and
// tables, the ablations, scaling/obs/crashsweep/service, and the
// design-space sweep ("sweep" — see cmd/almasweep for the full engine).
// The service experiment drives the multi-tenant volume layer with
// thousands of concurrent pipelined clients and reports virtual- and
// wall-time latency percentiles per operation class.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"almanac/internal/core"
	"almanac/internal/ftl"
	"almanac/internal/harness"
	"almanac/internal/trace"
)

func main() {
	scale := flag.String("scale", "quick", "experiment scale: quick or standard")
	seed := flag.Int64("seed", 1, "random seed (experiments are deterministic per seed)")
	jobs := flag.Int("j", 0, "worker pool size for independent device configs (0 = GOMAXPROCS, 1 = serial; results are identical at any -j)")
	list := flag.Bool("list", false, "list experiment names and exit")
	replay := flag.String("replay", "", "replay a CSV trace (at_ns,op,lpa,pages) on both device types and compare")
	flag.Parse()

	if *list {
		for _, n := range harness.Names() {
			fmt.Println(n)
		}
		return
	}

	var cfg harness.Config
	switch *scale {
	case "quick":
		cfg = harness.Quick()
	case "standard":
		cfg = harness.Standard()
	default:
		fmt.Fprintf(os.Stderr, "almanac: unknown scale %q (quick|standard)\n", *scale)
		os.Exit(2)
	}
	cfg.Seed = *seed
	cfg.Workers = *jobs

	if *replay != "" {
		if err := runReplay(cfg, *replay); err != nil {
			fmt.Fprintf(os.Stderr, "almanac: replay: %v\n", err)
			os.Exit(1)
		}
		return
	}

	names := flag.Args()
	if len(names) == 0 {
		names = harness.Names()
	}
	for _, name := range names {
		start := time.Now()
		tab, err := harness.Run(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "almanac: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(tab.Render())
		fmt.Printf("[%s completed in %v wall time]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

// runReplay drives an externally-supplied trace (e.g. a converted MSR or
// FIU original) against both device types and compares them — the escape
// hatch from the synthetic stand-in workloads.
func runReplay(cfg harness.Config, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	reqs, err := trace.ReadCSV(f)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if len(reqs) == 0 {
		return fmt.Errorf("%s holds no requests", path)
	}
	fmt.Printf("replaying %d requests spanning %.2f days on both device types\n\n",
		len(reqs), reqs[len(reqs)-1].At.Sub(reqs[0].At).Hours()/24)

	type result struct {
		name string
		st   *trace.RunStats
		wa   float64
		ret  float64
	}
	var results []result
	for _, kind := range []string{"regular", "timessd"} {
		var dev ftl.Device
		var wa func() float64
		ret := -1.0
		if kind == "regular" {
			d, err := ftl.NewRegular(ftl.WithFlash(cfg.Flash))
			if err != nil {
				return err
			}
			dev, wa = d, d.WriteAmplification
		} else {
			c := core.DefaultConfig(ftl.WithFlash(cfg.Flash))
			c.MinRetention = cfg.MinRetention
			d, err := core.New(c)
			if err != nil {
				return err
			}
			dev, wa = d, d.WriteAmplification
		}
		gen := trace.NewContentGen(dev.PageSize(), trace.ContentSimilar, cfg.Seed)
		st, err := trace.Replay(dev, reqs, gen)
		if err != nil {
			return fmt.Errorf("%s: %w", kind, err)
		}
		if t, ok := dev.(*core.TimeSSD); ok {
			ret = t.RetentionDuration(st.End).Hours() / 24
		}
		results = append(results, result{kind, st, wa(), ret})
	}
	fmt.Printf("%-8s  %-12s  %-12s  %-10s  %-9s  %s\n",
		"device", "avg-resp", "p99-resp", "write-amp", "errors", "retention(days)")
	for _, r := range results {
		retention := "-"
		if r.ret >= 0 {
			retention = fmt.Sprintf("%.1f", r.ret)
		}
		fmt.Printf("%-8s  %-12v  %-12v  %-10.2f  %-9d  %s\n",
			r.name, r.st.AvgResponse(), r.st.Percentile(0.99), r.wa, r.st.Errors, retention)
	}
	return nil
}
