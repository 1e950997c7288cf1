package harness

import (
	"fmt"

	"almanac/internal/sweep"
	"almanac/internal/trace"
)

// pairResult carries one workload's TimeSSD-vs-Regular comparison.
type pairResult struct {
	name        string
	usage       float64
	respRegular float64 // avg response, ms
	respTime    float64
	p99Regular  float64 // 99th percentile response, ms
	p99Time     float64
	waRegular   float64 // write amplification
	waTime      float64
	retention   float64 // TimeSSD retention at end, days
}

// runPairs replays every named workload on both device types at every
// utilisation — the shared engine behind Figures 6 and 7. The
// (usage, workload) cells are independent simulations, dispatched across
// the worker pool; each fills its own slot so the row order matches the
// serial sweep exactly.
func (c Config) runPairs() ([]pairResult, error) {
	type pairJob struct {
		usage float64
		name  string
	}
	var jobs []pairJob
	for _, usage := range c.Usages {
		for _, name := range trace.AllNames() {
			jobs = append(jobs, pairJob{usage, name})
		}
	}
	out := make([]pairResult, len(jobs))
	err := sweep.Parallel(c.Workers, len(jobs), func(i int) error {
		usage, name := jobs[i].usage, jobs[i].name
		reg, err := c.newRegular()
		if err != nil {
			return err
		}
		regRun, err := c.runTrace(reg, name, usage, c.Days)
		if err != nil {
			return fmt.Errorf("regular: %w", err)
		}
		tsd, err := c.newTimeSSD(nil)
		if err != nil {
			return err
		}
		tsdRun, err := c.runTrace(tsd, name, usage, c.Days)
		if err != nil {
			return fmt.Errorf("timessd: %w", err)
		}
		out[i] = pairResult{
			name:        name,
			usage:       usage,
			respRegular: regRun.stats.AvgResponse().Seconds() * 1e3,
			respTime:    tsdRun.stats.AvgResponse().Seconds() * 1e3,
			p99Regular:  regRun.stats.Percentile(0.99).Seconds() * 1e3,
			p99Time:     tsdRun.stats.Percentile(0.99).Seconds() * 1e3,
			waRegular:   reg.WriteAmplification(),
			waTime:      tsd.WriteAmplification(),
			retention:   tsd.RetentionDuration(tsdRun.end).Hours() / 24,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Figure6 reproduces Fig. 6: average I/O response time of the real-world
// traces on TimeSSD vs a regular SSD at 50% and 80% capacity usage.
func Figure6(c Config) (*Table, error) {
	pairs, err := c.runPairs()
	if err != nil {
		return nil, err
	}
	return figure6From(pairs), nil
}

// Figure7 reproduces Fig. 7: write amplification for the same runs.
func Figure7(c Config) (*Table, error) {
	pairs, err := c.runPairs()
	if err != nil {
		return nil, err
	}
	return figure7From(pairs), nil
}

func figure6From(pairs []pairResult) *Table {
	t := &Table{
		Title:  "Figure 6: Average I/O response time, TimeSSD vs Regular SSD",
		Header: []string{"usage", "workload", "regular(ms)", "timessd(ms)", "overhead", "p99-reg(ms)", "p99-tsd(ms)"},
	}
	var sum, n float64
	byUsage := map[float64][2]float64{}
	for _, p := range pairs {
		over := p.respTime/p.respRegular - 1
		t.AddRow(fmt.Sprintf("%.0f%%", p.usage*100), p.name,
			fmt.Sprintf("%.3f", p.respRegular), fmt.Sprintf("%.3f", p.respTime), pct(over),
			fmt.Sprintf("%.3f", p.p99Regular), fmt.Sprintf("%.3f", p.p99Time))
		sum += over
		n++
		agg := byUsage[p.usage]
		agg[0] += over
		agg[1]++
		byUsage[p.usage] = agg
	}
	for _, usage := range []float64{0.5, 0.8} {
		if agg, ok := byUsage[usage]; ok && agg[1] > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("mean overhead @%.0f%% usage: %s (paper: +2.5%% @50%%, +5.8%% @80%%)",
				usage*100, pct(agg[0]/agg[1])))
		}
	}
	_ = sum / n
	return t
}

func figure7From(pairs []pairResult) *Table {
	t := &Table{
		Title:  "Figure 7: Write amplification, TimeSSD vs Regular SSD",
		Header: []string{"usage", "workload", "regular", "timessd", "increase"},
	}
	byUsage := map[float64][2]float64{}
	for _, p := range pairs {
		inc := p.waTime/p.waRegular - 1
		t.AddRow(fmt.Sprintf("%.0f%%", p.usage*100), p.name,
			f2(p.waRegular), f2(p.waTime), pct(inc))
		agg := byUsage[p.usage]
		agg[0] += inc
		agg[1]++
		byUsage[p.usage] = agg
	}
	for _, usage := range []float64{0.5, 0.8} {
		if agg, ok := byUsage[usage]; ok && agg[1] > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("mean WA increase @%.0f%% usage: %s (paper: +10.1%% @50%%, +15.3%% @80%%)",
				usage*100, pct(agg[0]/agg[1])))
		}
	}
	return t
}
