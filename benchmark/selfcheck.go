package main

import (
	"fmt"
	"io"
	"math"
)

// selfcheck runs the untraced suite twice in one process and compares the
// two sets the way a reviewer compares two commits: every exact metric
// identical, every end-to-end metric of the second set within its bound of
// the first. Where the repetitions of either set spread wider than the
// bound, or the host's memory yardstick (host.mem_ns) moved by more than
// the bound between the sets, the comparison is reported as unresolved,
// neither passed nor failed: the host was too noisy for this bound to
// decide anything. It
// prints the observed difference and spread beside each bound, so a bound
// that is too tight for this host shows before a PR trips it.
func selfcheck(o options, sz sizes, out io.Writer) error {
	var sets [2]*report
	for i := range sets {
		fmt.Fprintf(out, "\n#### selfcheck set %d of 2\n", i+1)
		rep, err := suite(o, sz, nil, out)
		if err != nil {
			return err
		}
		sets[i] = rep
	}
	fmt.Fprintf(out, "\n#### selfcheck: second set against first\n")
	bad, unresolved := compareSets(sets[0], sets[1], out)
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d comparison(s) failed, %d unresolved", bad, unresolved)
	}
	fmt.Fprintf(out, "selfcheck: every exact metric identical, no end-to-end metric beyond its bound, %d unresolved\n", unresolved)
	return nil
}

// compareSets prints every end-to-end metric of both sets with the
// observed difference and the wider of the two repetition spreads beside
// its bound, and returns how many comparisons failed and how many were
// unresolved.
func compareSets(first, second *report, out io.Writer) (bad, unresolved int) {
	fmt.Fprintf(out, "%-18s %-18s %16s %16s %9s %9s %6s\n", "workload", "metric", "first", "second", "worse by", "rep spread", "bound")
	for i, a := range first.Workloads {
		b := second.Workloads[i]
		// How far the host's memory speed moved between the two sets.
		memA, _ := find(a.PerLayer, "host.mem_ns")
		memB, _ := find(b.PerLayer, "host.mem_ns")
		drift := math.Abs(worse(metricDef{better: "lower"}, memA.Value, memB.Value))
		fmt.Fprintf(out, "%-18s %-18s %16.1f %16.1f %8.2f%%\n", a.Workload, "host.mem_ns", memA.Value, memB.Value, drift*100)
		for j, d := range endToEnd {
			x, y := a.EndToEnd[j], b.EndToEnd[j]
			sp := max(x.Spread, y.Spread)
			verdict := ""
			switch {
			case exactEndToEnd[d.name] && x.Value != y.Value:
				verdict = "  FAIL: exact metric differs"
				bad++
			case exactEndToEnd[d.name]:
			case sp > d.bound:
				verdict = "  unresolved: repetitions spread wider than the bound"
				unresolved++
			case d.name != "peak_rss_mb" && drift > d.bound:
				verdict = "  unresolved: the host's memory speed moved by more than the bound"
				unresolved++
			case worse(d, x.Value, y.Value) > d.bound:
				verdict = "  FAIL: beyond bound"
				bad++
			}
			fmt.Fprintf(out, "%-18s %-18s %16.4f %16.4f %8.2f%% %8.2f%% %5.0f%%%s\n", a.Workload, d.name, x.Value, y.Value, worse(d, x.Value, y.Value)*100, sp*100, d.bound*100, verdict)
		}
		for _, name := range exactPerLayer {
			x, okx := find(a.PerLayer, name)
			y, oky := find(b.PerLayer, name)
			if okx != oky || x.Value != y.Value || x.Spread != 0 || y.Spread != 0 {
				bad++
				fmt.Fprintf(out, "%-18s %-18s %16.4f %16.4f  FAIL: exact metric differs\n", a.Workload, name, x.Value, y.Value)
			}
		}
		// failed_ratio has bound 0: the second set may not fail more.
		verdict := ""
		if b.Failed*a.Attempted > a.Failed*b.Attempted {
			verdict = "  FAIL: beyond bound"
			bad++
		}
		fmt.Fprintf(out, "%-18s %-18s %16.3g %16.3g %28.0f%%%s\n", a.Workload, "failed_ratio", ratio(int64(a.Failed), int64(a.Attempted)), ratio(int64(b.Failed), int64(b.Attempted)), 0.0, verdict)
	}
	return bad, unresolved
}
