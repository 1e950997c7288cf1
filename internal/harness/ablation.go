package harness

import (
	"fmt"

	"almanac/internal/core"
	"almanac/internal/obs"
	"almanac/internal/sweep"
	"almanac/internal/trace"
	"almanac/internal/vclock"
)

// ablationWorkload is the trace used for design-choice ablations: `src`
// is a mid-intensity MSR server trace with both hot updates and idle gaps.
const ablationWorkload = "src"

// ablationConfig raises the write intensity well above the figure runs so
// every mechanism under ablation — compression, expiry, the estimator — is
// firmly engaged.
func (c Config) ablationConfig() Config {
	c.ReqPerDay *= 4
	return c
}

// ablationRun measures one TimeSSD variant on the ablation workload at
// 80% usage (where the mechanisms matter most).
func (c Config) ablationRun(mutate func(*core.Config)) (resp, wa, retention float64, st obs.Counters, err error) {
	c = c.ablationConfig()
	dev, err := c.newTimeSSD(mutate)
	if err != nil {
		return 0, 0, 0, obs.Counters{}, err
	}
	run, err := c.runTrace(dev, ablationWorkload, 0.8, c.Days)
	if err != nil {
		return 0, 0, 0, obs.Counters{}, err
	}
	return run.stats.AvgResponse().Seconds() * 1e3,
		dev.WriteAmplification(),
		dev.RetentionDuration(run.end).Hours() / 24,
		dev.Counters(),
		nil
}

// AblationCompression quantifies §3.6's delta compression: with it off,
// retained versions occupy full pages, shrinking the retention window and
// raising GC traffic.
func AblationCompression(c Config) (*Table, error) {
	t := &Table{
		Title:  "Ablation: delta compression (workload src @80% usage)",
		Header: []string{"variant", "resp(ms)", "write-amp", "retention(days)", "deltas"},
	}
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"full (compression on)", nil},
		{"no idle compression", func(cc *core.Config) { cc.DisableIdleCompression = true }},
		{"no compression at all", func(cc *core.Config) { cc.DisableCompression = true }},
	}
	rows := make([][]string, len(variants))
	err := sweep.Parallel(c.Workers, len(variants), func(i int) error {
		v := variants[i]
		resp, wa, ret, st, err := c.ablationRun(v.mutate)
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		rows[i] = []string{v.name, fmt.Sprintf("%.3f", resp), f2(wa), fmt.Sprintf("%.1f", ret),
			fmt.Sprintf("%d", st.DeltasCreated)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes, "expected: disabling compression shortens retention and/or raises GC cost; idle compression moves compression off the critical path")
	return t, nil
}

// AblationGroupSize sweeps the Bloom-filter page-group granularity N
// (§3.5): larger N shrinks filter memory but coarsens expiration.
func AblationGroupSize(c Config) (*Table, error) {
	t := &Table{
		Title:  "Ablation: Bloom-filter group size N (workload src @80% usage)",
		Header: []string{"N", "resp(ms)", "retention(days)", "bf-segments", "window-drops"},
	}
	c = c.ablationConfig()
	groups := []int{1, 4, 16, 64}
	rows := make([][]string, len(groups))
	err := sweep.Parallel(c.Workers, len(groups), func(i int) error {
		n := groups[i]
		dev, err := c.newTimeSSD(func(cc *core.Config) { cc.BFGroup = n })
		if err != nil {
			return err
		}
		run, err := c.runTrace(dev, ablationWorkload, 0.8, c.Days)
		if err != nil {
			return fmt.Errorf("N=%d: %w", n, err)
		}
		rows[i] = []string{fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f", run.stats.AvgResponse().Seconds()*1e3),
			fmt.Sprintf("%.1f", dev.RetentionDuration(run.end).Hours()/24),
			fmt.Sprintf("%d", dev.Segments()),
			fmt.Sprintf("%d", dev.Counters().WindowDrops)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes, "the paper fixes N=16; the sweep shows the memory/precision trade-off is flat around it")
	return t, nil
}

// AblationThreshold sweeps the GC-overhead threshold TH of Eq. 1 (§3.8) —
// the retention-vs-performance dial. The estimator only governs foreground
// GC, so the sweep runs a continuous gapless write stream (no idle cycles
// for the background machinery): exactly the regime where Eq. 1 is the
// device's only control loop.
func AblationThreshold(c Config) (*Table, error) {
	t := &Table{
		Title:  "Ablation: GC-overhead threshold TH (continuous write stream @80% usage)",
		Header: []string{"TH", "resp(ms)", "retention(days)", "estimator-trips", "window-drops"},
	}
	ths := []float64{0.05, 0.1, 0.2, 0.5}
	rows := make([][]string, len(ths))
	err := sweep.Parallel(c.Workers, len(ths), func(i int) error {
		th := ths[i]
		dev, err := c.newTimeSSD(func(cc *core.Config) {
			cc.TH = th
			// The sweep isolates Eq. 1: no minimum bound, so the estimator
			// alone decides how much history survives.
			cc.MinRetention = 0
		})
		if err != nil {
			return err
		}
		spec := trace.Spec{
			Name:        "continuous",
			Seed:        c.Seed,
			Requests:    c.ReqPerDay * c.Days * 4,
			Duration:    vclock.Duration(c.Days) * vclock.Day,
			WriteRatio:  0.8,
			Footprint:   uint64(float64(dev.LogicalPages()) * 0.8),
			AvgPages:    2,
			HotFraction: 0.1,
			HotAccess:   0.7,
			BurstLen:    1 << 30, // one endless burst: no idle at all
			BurstGap:    10 * vclock.Millisecond,
		}
		reqs, gen, _, err := trace.Warm(dev, spec)
		if err != nil {
			return err
		}
		st, err := trace.Replay(dev, reqs, gen)
		if err != nil {
			return fmt.Errorf("TH=%.2f: %w", th, err)
		}
		rows[i] = []string{fmt.Sprintf("%.2f", th),
			fmt.Sprintf("%.3f", st.AvgResponse().Seconds()*1e3),
			fmt.Sprintf("%.1f", dev.RetentionDuration(st.End).Hours()/24),
			fmt.Sprintf("%d", dev.Counters().EstimatorTrips),
			fmt.Sprintf("%d", dev.Counters().WindowDrops)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"larger TH tolerates more GC overhead per write, buying longer retention (§3.4 trade-off)",
		"finding: at simulator scale the space-pressure shedder reacts before Eq. 1 accumulates a period, so the sweep is nearly flat — retention here is space-bound, not overhead-bound")
	return t, nil
}

// AblationMinRetention sweeps the guaranteed retention lower bound (§3.4):
// a larger bound preserves more history against floods but forces the
// device to refuse writes sooner when space runs out inside the window —
// the enforcement trade-off behind the paper's "stop serving I/O" policy.
func AblationMinRetention(c Config) (*Table, error) {
	t := &Table{
		Title:  "Ablation: guaranteed retention lower bound (workload src @80% usage)",
		Header: []string{"bound", "resp(ms)", "retention(days)", "write-failures"},
	}
	c = c.ablationConfig()
	bounds := []vclock.Duration{0, vclock.Hour, 12 * vclock.Hour, 2 * vclock.Day}
	rows := make([][]string, len(bounds))
	err := sweep.Parallel(c.Workers, len(bounds), func(i int) error {
		bound := bounds[i]
		dev, err := c.newTimeSSD(func(cc *core.Config) { cc.MinRetention = bound })
		if err != nil {
			return err
		}
		// Replay counts (rather than aborts on) refused writes, which is
		// the quantity this sweep reports.
		run, err := c.runTrace(dev, ablationWorkload, 0.8, c.Days)
		if err != nil {
			return fmt.Errorf("bound=%v: %w", bound, err)
		}
		rows[i] = []string{bound.String(),
			fmt.Sprintf("%.3f", run.stats.AvgResponse().Seconds()*1e3),
			fmt.Sprintf("%.1f", dev.RetentionDuration(run.end).Hours()/24),
			fmt.Sprintf("%d", run.stats.Errors)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"a bound the device cannot afford shows up as refused writes — the paper's visible-failure defence against flooding attacks (§3.4, §3.10)")
	return t, nil
}

// AblationMapCache sweeps DFTL-style demand paging of the mapping table
// (Fig. 3: "tables are cached on demand if RAM resource is scarce"): the
// smaller the resident fraction, the more host operations pay a
// translation-page fetch first.
func AblationMapCache(c Config) (*Table, error) {
	t := &Table{
		Title:  "Ablation: demand-paged mapping table (workload src @50% usage)",
		Header: []string{"cached-fraction", "resp(ms)", "hit-rate", "writebacks"},
	}
	totalVPNs := c.Flash.TotalPages() / (c.Flash.PageSize / 4)
	if totalVPNs < 8 {
		totalVPNs = 8
	}
	fracs := []struct {
		name  string
		slots int
	}{
		{"all (DRAM-resident)", 0},
		{"1/2", totalVPNs / 2},
		{"1/8", totalVPNs / 8},
		{"1/32", totalVPNs / 32},
	}
	rows := make([][]string, len(fracs))
	err := sweep.Parallel(c.Workers, len(fracs), func(i int) error {
		frac := fracs[i]
		slots := frac.slots
		if frac.name != "all (DRAM-resident)" && slots < 1 {
			slots = 1 // never degrade a fraction to "fully cached" (slots 0)
		}
		dev, err := c.newTimeSSD(func(cc *core.Config) { cc.FTL.MappingCacheSlots = slots })
		if err != nil {
			return err
		}
		run, err := c.runTrace(dev, ablationWorkload, 0.5, c.Days)
		if err != nil {
			return fmt.Errorf("slots=%d: %w", slots, err)
		}
		hitRate := 1.0
		if total := dev.MapStats.Hits + dev.MapStats.Misses; total > 0 {
			hitRate = float64(dev.MapStats.Hits) / float64(total)
		}
		rows[i] = []string{frac.name,
			fmt.Sprintf("%.3f", run.stats.AvgResponse().Seconds()*1e3),
			fmt.Sprintf("%.3f", hitRate),
			fmt.Sprintf("%d", dev.MapStats.Writebacks)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"the paper's board holds the whole AMT in its 1 GB DRAM; this sweep shows the cost structure when it cannot (DFTL-style demand caching)")
	return t, nil
}

// Experiment dispatch lives in registry.go: every experiment — the
// figures and ablations above included — registers itself with
// harness.Register and is reachable only through the registry.
