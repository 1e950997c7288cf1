package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"almanac/internal/fault"
	"almanac/internal/vclock"
)

// TestVersionAtMatchesEagerWalk drives twin devices through seeded streams
// of every mutator, both rollbacks, and fault plans of ECC-corrected and
// silent bit flips, one subtest per seed. One twin's VersionAt defers its
// decodes and rebuilds its answer through a whole reference chain; the
// other is forced to walk eagerly, rebuilding each version one step from
// the last, as Versions does. After every step both answer the same
// (lpa, when) queries, and must agree on the version (timestamp, liveness,
// bytes), the completion time, every counter, and the count, errors and
// virtual histogram of every obs class. Each seed also counts the answers
// that took a reference chain of two or more decodes, the queries asked
// while silent flips were armed, and, with no plan armed, the answers that
// applied a residual whose nonzero bytes are all literals and those that
// applied one with a match that repeats literal bytes, so a stream that
// never reaches one of them fails instead of passing vacuously.
func TestVersionAtMatchesEagerWalk(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { versionAtMatchesEagerWalk(t, seed) })
	}
}

func versionAtMatchesEagerWalk(t *testing.T, seed int64) {
	newDev := func() *TimeSSD {
		d := newTiny(t, func(c *Config) { c.IdleThreshold = vclock.Second })
		d.Obs().SetEnabled(true)
		return d
	}
	lazy, eager := newDev(), newDev()
	eager.eagerVersionAt = true
	const lpas = 24
	rng := rand.New(rand.NewSource(seed))
	now := vclock.Time(vclock.Second)
	seq := 0
	var chained, silentQueries, literalQueries, copiedQueries int
	silent := false

	compare := func(where string) {
		t.Helper()
		if cl, ce := lazy.Counters(), eager.Counters(); cl != ce {
			t.Fatalf("%s: counters differ:\ndeferred %+v\neager    %+v", where, cl, ce)
		}
		ol, oe := lazy.Obs().Ops(), eager.Obs().Ops()
		for name, e := range oe {
			l := ol[name]
			if l.Count != e.Count || l.Errors != e.Errors || l.Virt != e.Virt {
				t.Fatalf("%s: obs class %s differs: deferred %+v, eager %+v", where, name, l, e)
			}
		}
		if len(ol) != len(oe) {
			t.Fatalf("%s: %d obs classes on the deferred twin, %d on the eager one", where, len(ol), len(oe))
		}
	}
	step := func(name string, f func(d *TimeSSD) (vclock.Time, error)) {
		t.Helper()
		dl, el := f(lazy)
		de, ee := f(eager)
		if dl != de || (el == nil) != (ee == nil) {
			t.Fatalf("%s: deferred twin (%d ns, %v), eager twin (%d ns, %v)", name, dl, el, de, ee)
		}
		if dl > now {
			now = dl
		}
		compare(name)
	}
	query := func(i int, lpa uint64, when vclock.Time) {
		t.Helper()
		where := fmt.Sprintf("step %d: VersionAt(%d, %v, %v)", i, lpa, when, now)
		applied, copied := lazy.dec.Decodes()
		vl, dl, el := lazy.VersionAt(lpa, when, now)
		if a, c := lazy.dec.Decodes(); !lazy.faultsArmed {
			literalQueries += min(a-applied-(c-copied), 1)
			copiedQueries += min(c-copied, 1)
		}
		ve, de, ee := eager.VersionAt(lpa, when, now)
		if dl != de || (el == nil) != (ee == nil) {
			t.Fatalf("%s: deferred twin done %d ns err %v, eager twin done %d ns err %v", where, dl, el, de, ee)
		}
		if (vl == nil) != (ve == nil) {
			t.Fatalf("%s: deferred twin found %v, eager twin %v", where, vl, ve)
		}
		if vl != nil {
			if vl.TS != ve.TS || vl.Live != ve.Live || !bytes.Equal(vl.Data, ve.Data) {
				t.Fatalf("%s: deferred twin ts %v live %v, eager twin ts %v live %v (bytes equal %v)",
					where, vl.TS, vl.Live, ve.TS, ve.Live, bytes.Equal(vl.Data, ve.Data))
			}
			if !lazy.faultsArmed && len(lazy.atWalk.need) >= 2 {
				chained++
			}
		}
		if silent {
			silentQueries++
		}
		compare(where)
	}

	for i := 0; i < 600; i++ {
		lpa := uint64(rng.Intn(lpas))
		when := vclock.Time(rng.Int63n(int64(now)))
		switch op := rng.Intn(20); {
		case op < 9:
			seq++
			step("Write", func(d *TimeSSD) (vclock.Time, error) { return d.Write(lpa, versionPage(d, lpa, seq), now) })
		case op < 11:
			step("Trim", func(d *TimeSSD) (vclock.Time, error) { return d.Trim(lpa, now) })
		case op < 13:
			until := now.Add(vclock.Duration(1+rng.Intn(600)) * vclock.Second)
			step("Idle", func(d *TimeSSD) (vclock.Time, error) { d.Idle(now, until); return until, nil })
		case op < 15:
			step("FlushDeltas", func(d *TimeSSD) (vclock.Time, error) { return d.FlushDeltas(now) })
		case op < 17:
			step("RollBack", func(d *TimeSSD) (vclock.Time, error) { return d.RollBack(lpa, when, now) })
		case op < 18:
			var changed [2]int
			n := 0
			step("RollBackAll", func(d *TimeSSD) (vclock.Time, error) {
				c, done, err := d.RollBackAll(when, now)
				changed[n] = c
				n++
				return done, err
			})
			if changed[0] != changed[1] {
				t.Fatalf("step %d: RollBackAll changed %d pages on the deferred twin, %d on the eager one", i, changed[0], changed[1])
			}
		default:
			// Arm a plan of ECC-corrected flips, with silent flips on one
			// arming in two, or disarm it. Each twin gets its own injector
			// from one plan, so both draw identical fault streams.
			var plan *fault.Plan
			if !lazy.faultsArmed {
				plan = &fault.Plan{Seed: int64(i), Rules: []fault.Rule{
					{Effect: fault.BitFlip, Channel: fault.Any, Block: fault.Any, Page: fault.Any, Bits: 1, Prob: 0.2},
				}}
				if rng.Intn(2) == 0 {
					plan.Rules = append(plan.Rules, fault.Rule{
						Effect: fault.BitFlip, Channel: fault.Any, Block: fault.Any, Page: fault.Any, Bits: 4, Silent: true, Prob: 0.3,
					})
				}
			}
			silent = plan != nil && len(plan.Rules) == 2
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
		for q := 0; q < 2; q++ {
			query(i, uint64(rng.Intn(lpas)), vclock.Time(rng.Int63n(int64(now))))
		}
	}
	if chained == 0 {
		t.Fatal("no answer decoded through a reference chain")
	}
	if silentQueries == 0 {
		t.Fatal("no query ran with silent bit flips armed")
	}
	if literalQueries == 0 || copiedQueries == 0 {
		t.Fatalf("with no fault plan armed, %d answers applied a residual of literals only and %d one with a match repeating literal bytes; want both", literalQueries, copiedQueries)
	}
}

// TestRefCacheCountersStayZero pins the retired decoded-version cache
// counters at 0 under repeated Versions and VersionAt traffic over delta
// chains: nothing on the query path caches decodes any more, and the
// counters stay in obs.Counters only for readers that predate that.
func TestRefCacheCountersStayZero(t *testing.T) {
	const pages, rounds = 4, 6
	d := newTiny(t, func(c *Config) { c.MinRetention = 365 * vclock.Day })
	at := vclock.Time(0)
	for seq := 0; seq < rounds; seq++ {
		for lpa := uint64(0); lpa < pages; lpa++ {
			at = at.Add(vclock.Second)
			done, err := d.Write(lpa, versionPage(d, lpa, seq), at)
			if err != nil {
				t.Fatal(err)
			}
			at = done
		}
		d.Idle(at, at.Add(vclock.Hour))
		at = at.Add(vclock.Hour)
	}
	at, err := d.FlushDeltas(at)
	if err != nil {
		t.Fatal(err)
	}
	chained := false
	for pass := 0; pass < 2; pass++ {
		for lpa := uint64(0); lpa < pages; lpa++ {
			vers, done, err := d.Versions(lpa, at)
			if err != nil || len(vers) != rounds {
				t.Fatalf("Versions(%d) = %d versions, %v; want %d", lpa, len(vers), err, rounds)
			}
			at = done
			for i, v := range vers {
				want := versionPage(d, lpa, rounds-1-i)
				if !bytes.Equal(v.Data, want) {
					t.Fatalf("Versions(%d)[%d]: content mismatch", lpa, i)
				}
				got, done, err := d.VersionAt(lpa, v.TS, at)
				if err != nil || got == nil || got.TS != v.TS || !bytes.Equal(got.Data, want) {
					t.Fatalf("VersionAt(%d, %v) = %+v, %v", lpa, v.TS, got, err)
				}
				at = done
				chained = chained || len(d.atWalk.need) >= 2
			}
		}
	}
	if !chained {
		t.Fatal("no VersionAt decoded through a reference chain")
	}
	if c := d.Counters(); c.RefCacheHits != 0 || c.RefCacheMisses != 0 || c.RefCacheEvictions != 0 {
		t.Fatalf("retired cache counters moved: hits %d misses %d evictions %d", c.RefCacheHits, c.RefCacheMisses, c.RefCacheEvictions)
	}
}

// TestVersionAtResultSurvivesRollBack pins that a VersionAt answer decoded
// from a delta is the caller's own page: rollbacks rebuild versions in the
// device's write-back page, and none of them may write into an answer
// already returned. The answer must stay byte-identical across a RollBack
// of its own LPA and of another LPA, each to a version that decodes, and
// across a RollBackAll.
func TestVersionAtResultSurvivesRollBack(t *testing.T) {
	d, stamps, at := deltaChains(t)
	const lpa = 3
	v, done, err := d.VersionAt(lpa, stamps[lpa][chainRounds/2], at)
	if err != nil || v == nil || v.Live {
		t.Fatalf("VersionAt(%d) = %+v, %v; want a retained version", lpa, v, err)
	}
	if len(d.atWalk.need) == 0 {
		t.Fatal("the answer did not decode a delta")
	}
	at = done
	want := append([]byte(nil), v.Data...)
	check := func(what string, inPlace int) {
		t.Helper()
		if n, _ := d.dec.Decodes(); n == inPlace {
			t.Fatalf("%s decoded no delta in place", what)
		}
		if !bytes.Equal(v.Data, want) {
			t.Fatalf("%s changed an earlier VersionAt answer", what)
		}
	}
	for _, rb := range []struct {
		name string
		lpa  uint64
		idx  int
	}{{"RollBack of the same LPA", lpa, chainRounds - 1}, {"RollBack of another LPA", lpa + 1, chainRounds / 2}} {
		inPlace, _ := d.dec.Decodes()
		if at, err = d.RollBack(rb.lpa, stamps[rb.lpa][rb.idx], at); err != nil {
			t.Fatalf("%s: %v", rb.name, err)
		}
		check(rb.name, inPlace)
	}
	inPlace, _ := d.dec.Decodes()
	changed, _, err := d.RollBackAll(stamps[0][chainRounds-2], at)
	if err != nil || changed == 0 {
		t.Fatalf("RollBackAll changed %d pages: %v", changed, err)
	}
	check("RollBackAll", inPlace)
}
