package harness

import (
	"fmt"

	"almanac/internal/sweep"
	"almanac/internal/trace"
)

// Figure8 reproduces Fig. 8: the retention duration TimeSSD sustains as a
// function of trace length, for the MSR and FIU workloads at 80% and 50%
// capacity usage. The paper's headline — invalid data retained for up to
// 40 days on university (FIU) workloads and up to 56 days on enterprise
// (MSR) servers at 50% usage, collapsing toward the 3-day bound under
// pressure — is the shape this table reproduces.
func Figure8(c Config) (*Table, error) {
	t := &Table{
		Title:  "Figure 8: Data retention duration (days) vs trace length",
		Header: []string{"class", "usage", "workload", "trace(days)", "retention(days)", "window-drops"},
	}
	type class struct {
		class string
		names []string
		lens  []int
	}
	classes := []class{
		{"MSR", trace.MSRNames, c.Fig8MSRLens},
		{"FIU", trace.FIUNames, c.Fig8FIULens},
	}
	// Flatten the sweep into one cell per (class, usage, workload, length):
	// every cell is an independent simulation, dispatched across the worker
	// pool with rows assembled in sweep order.
	type cell struct {
		class string
		usage float64
		name  string
		days  int
	}
	var cells []cell
	for _, cl := range classes {
		for _, usage := range c.Usages {
			for _, name := range cl.names {
				for _, days := range cl.lens {
					cells = append(cells, cell{cl.class, usage, name, days})
				}
			}
		}
	}
	rows := make([][]string, len(cells))
	err := sweep.Parallel(c.Workers, len(cells), func(i int) error {
		j := cells[i]
		dev, err := c.newTimeSSD(nil)
		if err != nil {
			return err
		}
		run, err := c.runTrace(dev, j.name, j.usage, j.days)
		if err != nil {
			return fmt.Errorf("fig8 %s/%d: %w", j.name, j.days, err)
		}
		rows[i] = []string{j.class, fmt.Sprintf("%.0f%%", j.usage*100), j.name,
			fmt.Sprintf("%d", j.days),
			fmt.Sprintf("%.1f", dev.RetentionDuration(run.end).Hours()/24),
			fmt.Sprintf("%d", dev.Counters().WindowDrops)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"paper: retention 3–56 days; longer at 50% usage than 80%, longer on idle FIU workloads than busy MSR ones")
	return t, nil
}
