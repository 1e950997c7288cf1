package harness

import (
	"fmt"
	"math/rand"

	"almanac/internal/sweep"
	"almanac/internal/timekits"
	"almanac/internal/trace"
	"almanac/internal/vclock"
)

// Table3 reproduces the paper's Table 3: execution time of the TimeKits
// storage-state queries after each workload has run — TimeQuery scans
// every valid LPA (seconds; ~12 minutes on the paper's 1 TB device,
// proportionally faster here), while AddrQueryAll and RollBack touch one
// LPA's chain (milliseconds).
func Table3(c Config) (*Table, error) {
	t := &Table{
		Title:  "Table 3: Execution time of storage-state queries",
		Header: []string{"workload", "TimeQuery(s)", "AddrQueryAll(ms)", "RollBack(ms)"},
	}
	// One independent device and query sequence per workload: dispatch
	// across the worker pool, one row slot per workload.
	names := trace.AllNames()
	rows := make([][]string, len(names))
	err := sweep.Parallel(c.Workers, len(names), func(i int) error {
		name := names[i]
		dev, err := c.newTimeSSD(nil)
		if err != nil {
			return err
		}
		run, err := c.runTrace(dev, name, 0.5, c.Days)
		if err != nil {
			return fmt.Errorf("table3 %s: %w", name, err)
		}
		kit := timekits.New(dev)
		at := run.end.Add(vclock.Second)

		// TimeQuery: storage state one day ago.
		tq, err := kit.TimeQuery(at.Add(-vclock.Day), at)
		if err != nil {
			return err
		}
		at = tq.Done.Add(vclock.Second)

		// AddrQueryAll on a random recently-updated LPA.
		lpas := make([]uint64, 0, len(tq.Value))
		for _, rec := range tq.Value {
			lpas = append(lpas, rec.LPA)
		}
		lpa := pickLPA(lpas, c.Seed, dev.LogicalPages())
		aq, err := kit.AddrQueryAll(lpa, 1, at)
		if err != nil {
			return err
		}
		at = aq.Done.Add(vclock.Second)

		// RollBack the same LPA to one day ago.
		rb, err := kit.RollBack(lpa, 1, at.Add(-vclock.Day), at)
		if err != nil {
			return err
		}

		rows[i] = []string{name,
			fmt.Sprintf("%.2f", tq.Elapsed.Seconds()),
			ms(aq.Elapsed),
			ms(rb.Elapsed)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"paper (1 TB device): TimeQuery 710–764 s, AddrQueryAll 0.3–6.6 ms, RollBack 1.2–7.6 ms",
		fmt.Sprintf("this device: %d logical pages — TimeQuery scales with device size", logicalPagesOf(c)))
	return t, nil
}

func pickLPA(lpas []uint64, seed int64, logical int) uint64 {
	if len(lpas) == 0 {
		return uint64(logical / 2)
	}
	rng := rand.New(rand.NewSource(seed))
	return lpas[rng.Intn(len(lpas))]
}

func logicalPagesOf(c Config) int {
	total := c.Flash.TotalPages()
	return int(float64(total) / 1.15)
}
