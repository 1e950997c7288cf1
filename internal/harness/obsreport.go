package harness

import (
	"fmt"

	"almanac/internal/obs"
	"almanac/internal/trace"
	"almanac/internal/vclock"
)

// ObsReport exercises the observability layer end to end: it runs a
// warm/replay/rollback sequence on a single TimeSSD with instrumentation
// enabled and renders one row per (phase, operation class) from snapshot
// deltas. Quantiles are read from the virtual-time histograms — the
// latency the simulated device charged, not host CPU time; the wall
// column reports the mean host-side cost of the same operations.
//
// The run is a single device with phases that must execute in order, so
// Config.Workers does not apply; the wall column also wants an otherwise
// idle host.
func ObsReport(c Config) (*Table, error) {
	dev, err := c.newTimeSSD(nil)
	if err != nil {
		return nil, err
	}
	dev.Obs().SetEnabled(true)

	t := &Table{
		Title:  "Observability: per-phase operation latency",
		Header: []string{"phase", "op", "count", "errors", "virt p50 ms", "virt p99 ms", "virt max ms", "wall mean µs"},
	}
	nsToMS := func(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }
	prev := dev.Snapshot()
	addPhase := func(name string) {
		cur := dev.Snapshot()
		delta := obs.DeltaOps(prev.Ops, cur.Ops)
		for _, op := range obs.SortedOpNames(delta) {
			st := delta[op]
			t.AddRow(name, op,
				fmt.Sprintf("%d", st.Count),
				fmt.Sprintf("%d", st.Errors),
				nsToMS(st.Virt.QuantileNS(0.5)),
				nsToMS(st.Virt.QuantileNS(0.99)),
				nsToMS(st.Virt.MaxNS),
				fmt.Sprintf("%.1f", float64(st.Wall.MeanNS())/1e3))
		}
		prev = cur
	}

	footprint := uint64(float64(dev.LogicalPages()) * 0.5)
	spec, err := trace.NamedSpec(ablationWorkload, footprint, c.Days, c.ReqPerDay, c.Seed)
	if err != nil {
		return nil, err
	}
	reqs, gen, warmEnd, err := trace.Warm(dev, spec)
	if err != nil {
		return nil, err
	}
	addPhase("warm")

	st, err := trace.Replay(dev, reqs, gen)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	addPhase("replay")

	// Time-travel the whole device back to the warm point; the rollback's
	// internal writes and reads land in their own host-op classes.
	if _, _, err := dev.RollBackAll(warmEnd, st.End.Add(vclock.Second)); err != nil {
		return nil, fmt.Errorf("rollback: %w", err)
	}
	addPhase("rollback")

	t.Notes = append(t.Notes,
		"virt columns are simulated device time (includes channel queueing); wall is host CPU cost of the instrumented path",
		"quantiles are power-of-two bucket upper bounds, clamped to the exact max",
		"virt max ms is the maximum up to the end of the phase, not within it (histograms subtract, maxima do not)",
		fmt.Sprintf("count consistency: host-write count matches HostPageWrites (%d), flash-read count matches FlashReads (%d)",
			prev.C.HostPageWrites, prev.C.FlashReads))
	return t, nil
}
