package harness

import (
	"fmt"

	"almanac/internal/core"
	"almanac/internal/ftl"
	"almanac/internal/sweep"
)

// designSweep runs the design-space exploration engine as a harness
// experiment: the default grid over the Config's device geometry, with
// the worker pool shared through Config.Workers. Every metric the sweep
// extracts is virtual-time-derived, so — like the figure experiments and
// unlike scaling/obs — the rendered table is byte-identical at any
// worker count and participates in TestParallelMatchesSerial.
func designSweep(c Config) (*Table, error) {
	spec := sweep.DefaultSpec(c.Seed, c.SweepAxisValues, c.SweepDays, c.SweepReqPerDay)
	base := core.DefaultConfig(ftl.WithFlash(c.Flash))
	base.MinRetention = c.MinRetention
	eng := &sweep.Engine{Spec: spec, Base: base, Workers: c.Workers}
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	pareto := res.Pareto()
	header, rows := res.TableFor(pareto)
	return &Table{
		Title:  res.Title(),
		Header: header,
		Rows:   rows,
		Notes: []string{
			fmt.Sprintf("Pareto frontier: %d of %d design points are non-dominated (objectives: min gc-ovh, min wear-max, min p99-write, max retention)", len(pareto), len(res.Points)),
			"run the full space with cmd/almasweep: larger grids, LHS sampling, checkpoint/resume, committed SWEEP_N.json artifacts",
		},
	}, nil
}
