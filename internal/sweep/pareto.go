package sweep

import (
	"fmt"
	"strconv"
)

// The sweep's objective space, fixed across every spec so artifacts from
// different sweeps compare: GC overhead, wear, and tail latency are
// minimized; achieved retention is maximized. This is the paper's §3.4
// triangle (retention vs GC overhead vs wear) with the latency axis the
// service layer cares about added.

// dominates reports whether a is at least as good as b in every
// objective and strictly better in at least one.
func dominates(a, b Metrics) bool {
	better := false
	type pair struct{ x, y float64 }
	mins := []pair{
		{a.GCOverhead, b.GCOverhead},
		{float64(a.WearMax), float64(b.WearMax)},
		{a.P99WriteMS, b.P99WriteMS},
		{b.RetentionDays, a.RetentionDays}, // maximized: flip
	}
	for _, p := range mins {
		if p.x > p.y {
			return false
		}
		if p.x < p.y {
			better = true
		}
	}
	return better
}

// Pareto returns the non-dominated subset of the results, in point
// enumeration order.
func (r *Results) Pareto() []PointResult {
	var out []PointResult
	for i, a := range r.Points {
		dominated := false
		for j, b := range r.Points {
			if i != j && dominates(b.Metrics, a.Metrics) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	return out
}

func fmtMetricCells(m Metrics) []string {
	return []string{
		strconv.FormatFloat(m.GCOverhead, 'f', 4, 64),
		strconv.FormatFloat(m.WriteAmp, 'f', 3, 64),
		strconv.Itoa(m.WearMax),
		strconv.Itoa(m.WearSpread),
		strconv.FormatFloat(m.RetentionDays, 'f', 2, 64),
		strconv.FormatFloat(m.P99WriteMS, 'f', 3, 64),
		strconv.FormatInt(m.Errors, 10),
	}
}

var metricHeader = []string{"gc-ovh", "write-amp", "wear-max", "wear-spread", "retention(d)", "p99-write(ms)", "errors"}

// TableFor renders a point set as header+rows: one column per axis knob
// followed by the metric columns. Used for both the full result table
// and the Pareto table so the two align.
func (r *Results) TableFor(points []PointResult) (header []string, rows [][]string) {
	for _, a := range r.Spec.Axes {
		header = append(header, a.Knob)
	}
	header = append(header, metricHeader...)
	for _, p := range points {
		row := append([]string(nil), p.Values...)
		row = append(row, fmtMetricCells(p.Metrics)...)
		rows = append(rows, row)
	}
	return header, rows
}

// Title is the canonical table title for this sweep.
func (r *Results) Title() string {
	return fmt.Sprintf("Design-space sweep %q: %d points, workload %s @%.0f%% usage",
		r.Spec.Name, len(r.Points), r.Spec.Workload, r.Spec.Usage*100)
}
