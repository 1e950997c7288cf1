package harness

import (
	"fmt"
	"time"

	"almanac/internal/array"
	"almanac/internal/core"
	"almanac/internal/ftl"
	"almanac/internal/trace"
	"almanac/internal/vclock"
)

// ScalingShardCounts are the array sizes the scaling experiment sweeps.
var ScalingShardCounts = []int{1, 2, 4, 8}

// scalingSpec builds the write-heavy MSR-class trace the scaling sweep
// replays: rsrch-like write intensity (91% writes) with arrivals packed
// densely enough that the device — not the arrival process — is the
// bottleneck, so the makespan measures device bandwidth.
func scalingSpec(footprint uint64, requests int, seed int64) trace.Spec {
	return trace.Spec{
		Name:        "array-scaling",
		Seed:        seed,
		Requests:    requests,
		Duration:    vclock.Duration(requests) * 50 * vclock.Microsecond,
		WriteRatio:  0.91,
		TrimRatio:   0.02,
		Footprint:   footprint,
		AvgPages:    2,
		SeqProb:     0.10,
		HotFraction: 0.08,
		HotAccess:   0.80,
		BurstLen:    64,
		BurstGap:    0,
	}
}

// newArray builds an n-shard array whose members use the harness flash
// geometry and paper-default TimeSSD parameters. The retention lower
// bound is left at zero: the scaling trace is packed into fractions of a
// virtual second to saturate the device, so any bound would span the
// whole run and (correctly) wedge the device with ErrRetentionFull
// instead of letting the window adapt.
func (c Config) newArray(n int) (*array.Array, error) {
	cfg := core.DefaultConfig(ftl.WithFlash(c.Flash))
	cfg.MinRetention = 0
	return array.New(array.Config{Shards: n, Shard: cfg})
}

// ArrayScaling measures host-side throughput and tail latency of the
// sharded array on a write-heavy trace as the shard count grows: the
// strong-scaling experiment behind the `almanacd -shards N` deployment.
// The workload is fixed (sized to half of one shard), so the 1-shard row
// is the single-device baseline and speedup is its makespan divided by
// the array's.
//
// Two throughput views are reported: virtual (requests per virtual
// second — the device-bound number, host CPUs notwithstanding) and wall
// (host-side execution time; scales with shards only when the host has
// cores to run the workers on).
//
// This experiment ignores Config.Workers and runs its rows serially: each
// row already spawns the array's own per-shard host workers, and the wall
// column measures exactly that parallelism — overlapping rows would
// oversubscribe the host and corrupt the measurement.
func ArrayScaling(c Config) (*Table, error) {
	tab := &Table{
		Title:  "Array scaling — write-heavy trace, N TimeSSD shards",
		Header: []string{"mode", "shards", "virt-makespan(s)", "virt-kreq/s", "p99(ms)", "speedup", "write-amp", "wall(ms)"},
		Notes: []string{
			"strong: fixed workload sized to half of one shard — consolidation removes GC pressure AND parallelises, so speedup is super-linear",
			"weak: footprint and requests scale with shards (constant per-shard pressure) — speedup isolates pure device parallelism",
			"speedup = 1-shard virtual makespan / array makespan (weak: × work ratio); wall(ms) is host time, scales only with host cores",
		},
	}
	base, err := c.newArray(1)
	if err != nil {
		return nil, err
	}
	// Per-shard sizing: fill half the shard, then push it through GC with
	// a dense write burst — the scaling claim must hold with the retention
	// machinery active, not just on a fresh device.
	footprint := uint64(base.LogicalPages()) / 2
	requests := int(footprint)
	if r := c.ReqPerDay * c.Days; r > requests {
		requests = r
	}
	_ = base.Close() // Close on a live array cannot fail

	for _, mode := range []string{"strong", "weak"} {
		var baseline float64
		for _, n := range ScalingShardCounts {
			fp, reqCount := footprint, requests
			if mode == "weak" {
				fp *= uint64(n)
				reqCount *= n
			}
			st, wa, wall, err := c.runScale(n, fp, reqCount)
			if err != nil {
				return nil, fmt.Errorf("scaling %s (%d shards): %w", mode, n, err)
			}
			makespan := st.End.Sub(st.Start).Seconds()
			work := 1.0
			if mode == "weak" {
				work = float64(n) // n× the requests in the same makespan is n× throughput
			}
			if n == 1 {
				baseline = makespan
			}
			speedup := baseline / makespan * work
			tab.AddRow(
				mode,
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%.3f", makespan),
				fmt.Sprintf("%.1f", st.Throughput()/1e3),
				ms(st.Percentile(0.99)),
				fmt.Sprintf("%.2fx", speedup),
				f2(wa),
				fmt.Sprintf("%d", wall.Milliseconds()),
			)
		}
	}
	return tab, nil
}

// runScale warms and replays one array configuration, returning the run
// stats, write amplification and wall-clock execution time.
func (c Config) runScale(n int, footprint uint64, requests int) (*trace.RunStats, float64, time.Duration, error) {
	arr, err := c.newArray(n)
	if err != nil {
		return nil, 0, 0, err
	}
	defer arr.Close()
	gen := trace.NewContentGen(arr.PageSize(), trace.ContentSimilar, c.Seed)
	warmEnd, err := trace.Fill(arr, footprint, gen, 0)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("warmup: %w", err)
	}
	reqs, err := trace.Generate(scalingSpec(footprint, requests, c.Seed))
	if err != nil {
		return nil, 0, 0, err
	}
	shift := warmEnd.Add(vclock.Second)
	for i := range reqs {
		reqs[i].At = reqs[i].At + shift
	}
	wallStart := time.Now() //almalint:allow wallclock reason: the scaling experiment measures real host parallelism
	st, err := array.Replay(arr, reqs, gen)
	wall := time.Since(wallStart) //almalint:allow wallclock reason: the scaling experiment measures real host parallelism
	if err != nil {
		return nil, 0, 0, err
	}
	return st, arr.WriteAmplification(), wall, nil
}
