package harness

import (
	"strings"
	"testing"
)

// TestQuickScaleHeadlines locks in the reproduction's headline numbers at
// the exact configuration `go run ./cmd/almanac` uses, with generous
// envelopes: regressions that push the mean response overhead or the WA
// increase out of the paper's neighbourhood should fail loudly here, not
// be discovered by a reader of EXPERIMENTS.md.
func TestQuickScaleHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale sweep")
	}
	pairs, err := Quick().runPairs()
	if err != nil {
		t.Fatal(err)
	}
	f6, f7 := figure6From(pairs), figure7From(pairs)
	meanOf := func(tab *Table, usage string) float64 {
		var sum float64
		n := 0
		for i, row := range tab.Rows {
			if row[0] != usage {
				continue
			}
			reg := cell(t, tab, i, 2)
			tsd := cell(t, tab, i, 3)
			sum += tsd/reg - 1
			n++
		}
		if n == 0 {
			t.Fatalf("no rows for usage %s", usage)
		}
		return sum / float64(n)
	}
	// Paper: +2.5% @50%, +5.8% @80%. Envelope: within ±25 percentage
	// points — the claim being locked is "negligible overhead", not the
	// decimal.
	for _, usage := range []string{"50%", "80%"} {
		m := meanOf(f6, usage)
		if m < -0.25 || m > 0.25 {
			t.Errorf("fig6 mean overhead @%s = %+.1f%%, outside ±25%%", usage, m*100)
		}
	}
	// Paper: WA +10.1% @50%, +15.3% @80%. Envelope: increase must be
	// positive (retention is never free) and under +60%.
	for _, usage := range []string{"50%", "80%"} {
		m := meanOf(f7, usage)
		if m <= 0 || m > 0.6 {
			t.Errorf("fig7 mean WA increase @%s = %+.1f%%, outside (0, +60%%]", usage, m*100)
		}
	}
	// Sanity on the table wiring itself.
	if !strings.Contains(f6.Title, "Figure 6") || !strings.Contains(f7.Title, "Figure 7") {
		t.Fatal("tables mislabeled")
	}
}
