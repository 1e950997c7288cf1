package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"almanac/internal/fault"
	"almanac/internal/vclock"
)

// lpaTimestamps walks one LPA's chains as a time query does and returns
// the timestamps found, newest first.
func lpaTimestamps(d *TimeSSD, lpa uint64, at vclock.Time) ([]vclock.Time, error) {
	var m scanMemo
	_, err := d.appendTimestamps(&m, lpa, at)
	return m.ts, err
}

// TestScanMemoMatchesColdWalk drives twin devices through one seeded stream
// of every mutator and rollback, with time queries after each step. The
// twin's generation is bumped before every query, so it always walks cold;
// the other device replays its memo whenever it may. Queries alternate
// between issuing at the stream's clock, where the channels are still busy
// with the previous query's reads and a replay runs its reads dry on their
// horizons, and at the latest channel horizon, where every channel is idle
// and a replay shifts its cached idle-start outcome; both branches must
// run. After
// every query the two must agree on the records, the completion time, every
// counter, the virtual side of every obs histogram, and each channel's busy
// horizon. Every mutator that does not bump the generation lets a stale
// memo replay, and one of these comparisons fails.
func TestScanMemoMatchesColdWalk(t *testing.T) {
	newDev := func() *TimeSSD {
		d := newTiny(t, func(c *Config) { c.IdleThreshold = vclock.Second })
		d.Obs().SetEnabled(true)
		return d
	}
	memo, cold := newDev(), newDev()
	const lpas = 24
	rng := rand.New(rand.NewSource(7))
	now := vclock.Time(vclock.Second)
	seq := 0
	step := func(name string, f func(d *TimeSSD) (vclock.Time, error)) {
		t.Helper()
		dm, em := f(memo)
		dc, ec := f(cold)
		if dm != dc || (em == nil) != (ec == nil) {
			t.Fatalf("%s: memo device (%v, %v), cold twin (%v, %v)", name, dm, em, dc, ec)
		}
		if dm > now {
			now = dm
		}
	}
	query := func(step int, from, to, at vclock.Time) {
		t.Helper()
		cold.gen++
		rm, dm, em := memo.UpdatedBetween(from, to, at)
		rc, dc, ec := cold.UpdatedBetween(from, to, at)
		where := fmt.Sprintf("step %d: UpdatedBetween(%v, %v, %v)", step, from, to, at)
		if em != nil || ec != nil {
			t.Fatalf("%s: errors %v, %v", where, em, ec)
		}
		if !reflect.DeepEqual(rm, rc) || dm != dc {
			t.Fatalf("%s: memo device %v done %v, cold twin %v done %v", where, rm, dm, rc, dc)
		}
		if cm, cc := memo.Counters(), cold.Counters(); cm != cc {
			t.Fatalf("%s: counters differ:\nmemo %+v\ncold %+v", where, cm, cc)
		}
		om, oc := memo.Obs().Ops(), cold.Obs().Ops()
		for name, c := range oc {
			m := om[name]
			if m.Count != c.Count || m.Errors != c.Errors || m.Virt != c.Virt {
				t.Fatalf("%s: obs class %s differs: memo %+v, cold %+v", where, name, m, c)
			}
		}
		if len(om) != len(oc) {
			t.Fatalf("%s: %d obs classes on the memo device, %d on the twin", where, len(om), len(oc))
		}
		if hm, hc := memo.Arr.Horizons(nil), cold.Arr.Horizons(nil); !slices.Equal(hm, hc) {
			t.Fatalf("%s: channel horizons (ns): memo device %d, cold twin %d", where, hm, hc)
		}
	}
	// branch reports which way a replay at `at` goes: quiet when every
	// channel is idle by at, loaded when a channel the memo charges is busy
	// past it, and neither otherwise (or when the query will walk).
	branch := func(at vclock.Time) (quiet, loaded bool) {
		if !memo.scanCurrent() {
			return false, false
		}
		h := memo.Arr.Horizons(nil)
		for _, ch := range memo.scan.ch {
			if h[ch] > at {
				return false, true
			}
		}
		return slices.Max(h) <= at, false
	}

	quietReplays, loadedReplays, queries := 0, 0, 0
	for i := 0; i < 600; i++ {
		lpa := uint64(rng.Intn(lpas))
		switch op := rng.Intn(20); {
		case op < 10:
			seq++
			step("Write", func(d *TimeSSD) (vclock.Time, error) { return d.Write(lpa, versionPage(d, lpa, seq), now) })
		case op < 12:
			step("Trim", func(d *TimeSSD) (vclock.Time, error) { return d.Trim(lpa, now) })
		case op < 14:
			until := now.Add(vclock.Duration(1+rng.Intn(600)) * vclock.Second)
			step("Idle", func(d *TimeSSD) (vclock.Time, error) { d.Idle(now, until); return until, nil })
		case op < 16:
			step("FlushDeltas", func(d *TimeSSD) (vclock.Time, error) { return d.FlushDeltas(now) })
		case op < 18:
			when := vclock.Time(rng.Int63n(int64(now)))
			step("RollBack", func(d *TimeSSD) (vclock.Time, error) { return d.RollBack(lpa, when, now) })
		default:
			// Arm a plan of ECC-corrected bit flips on a fifth of all
			// reads, or disarm it: each device gets its own injector from
			// one plan, so the twins draw identical fault streams.
			var plan *fault.Plan
			if !memo.faultsArmed {
				plan = &fault.Plan{Seed: int64(i), Rules: []fault.Rule{
					{Effect: fault.BitFlip, Channel: fault.Any, Block: fault.Any, Page: fault.Any, Bits: 1, Prob: 0.2},
				}}
			}
			step("SetFaults", func(d *TimeSSD) (vclock.Time, error) {
				if plan == nil {
					d.SetFaults(nil)
					return now, nil
				}
				inj, err := fault.NewInjector(plan)
				d.SetFaults(inj)
				return now, err
			})
		}
		now = now.Add(vclock.Duration(1+rng.Intn(1000)) * vclock.Millisecond)
		// The first query after a mutator walks; the rest replay.
		for q := 0; q < 3; q++ {
			at := now
			if queries++; queries%2 == 0 {
				at = max(at, slices.Max(memo.Arr.Horizons(nil)))
			}
			quiet, loaded := branch(at)
			if quiet {
				quietReplays++
			}
			if loaded {
				loadedReplays++
			}
			from := vclock.Time(rng.Int63n(int64(now)))
			to := from.Add(vclock.Duration(rng.Int63n(int64(now))))
			if q == 0 {
				from, to = 0, now
			}
			query(i, from, to, at)
		}
	}
	t.Logf("%d replays on an idle array, %d on a busy one", quietReplays, loadedReplays)
	if quietReplays < 100 || loadedReplays < 100 {
		t.Fatalf("%d replays on an idle array and %d on a busy one, want at least 100 of each", quietReplays, loadedReplays)
	}
}
