package core

import (
	"slices"
	"testing"

	"almanac/internal/invariant"
	"almanac/internal/vclock"
)

// TestReadAllocs pins the steady-state zero-allocation contract of the host
// read path: once the mapping is warm, Read must serve the live version
// without touching the heap.
func TestReadAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("almanacdebug shadow assertions allocate")
	}
	d := newTiny(t, nil)
	at := vclock.Time(0)
	const pages = 8
	for lpa := uint64(0); lpa < pages; lpa++ {
		at = at.Add(vclock.Second)
		done, err := d.Write(lpa, versionPage(d, lpa, 0), at)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	lpa := uint64(0)
	n := testing.AllocsPerRun(100, func() {
		if _, _, err := d.Read(lpa, at); err != nil {
			t.Fatal(err)
		}
		lpa = (lpa + 1) % pages
	})
	if n != 0 {
		t.Fatalf("Read allocates %.2f times per call in steady state, want 0", n)
	}
}

// TestVersionsAllocs pins the steady-state allocation budget of the version
// query path. Over retained raw pages it is exactly one allocation per call:
// the returned []Version slice, which the API contract hands to the caller
// (Version.Data entries alias device storage, see Versions). Over an
// idle-compressed, flushed 16-version chain (BenchmarkVersionsQuery's shape)
// every delta decodes into a buffer of its own because the 15 results must
// coexist; with the result slice, copied out of the device's walk scratch
// at its exact length, that is 16.
func TestVersionsAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("almanacdebug shadow assertions allocate")
	}
	const pages = 8
	measure := func(rounds int, compress bool) float64 {
		d := newTiny(t, func(c *Config) { c.MinRetention = vclock.Day })
		at := vclock.Time(0)
		for round := 0; round < rounds; round++ {
			for lpa := uint64(0); lpa < pages; lpa++ {
				at = at.Add(vclock.Second)
				done, err := d.Write(lpa, versionPage(d, lpa, round), at)
				if err != nil {
					t.Fatal(err)
				}
				at = done
			}
		}
		if compress {
			d.Idle(at, at.Add(vclock.Hour))
			done, err := d.FlushDeltas(at.Add(vclock.Hour))
			if err != nil {
				t.Fatal(err)
			}
			at = done
			if c := d.Counters(); c.IdleCompressions == 0 || c.DeltaPagesWritten == 0 {
				t.Fatalf("idle pass compressed %d pages into %d delta pages: no chains to walk", c.IdleCompressions, c.DeltaPagesWritten)
			}
		}
		lpa := uint64(0)
		return testing.AllocsPerRun(200, func() {
			vers, _, err := d.Versions(lpa, at)
			if err != nil || len(vers) != rounds {
				t.Fatalf("Versions(%d) = %d versions, %v; want %d", lpa, len(vers), err, rounds)
			}
			lpa = (lpa + 1) % pages
		})
	}
	if n := measure(4, false); n > 1 {
		t.Fatalf("Versions allocates %.2f times per call over raw retained pages, want <= 1 (the result slice)", n)
	}
	if n := measure(16, true); n > 16 {
		t.Fatalf("Versions allocates %.2f times per call over a 16-version delta chain, want <= 16 (15 decoded versions and the result slice)", n)
	}
}

// TestVersionAtAllocs pins what a deferred VersionAt allocates per call
// over flushed 16-version delta chains, idle-compressed round by round:
// the returned Version, plus the returned content when it had to be
// decoded. Nothing else: the target is rebuilt in that one page, its
// whole reference chain applied onto it on every call. The live head
// costs only the Version.
func TestVersionAtAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("almanacdebug shadow assertions allocate")
	}
	d, stamps, at := deltaChains(t)
	for _, tc := range []struct {
		name  string
		index int // into the chain, newest first
		want  float64
	}{{"head", 0, 1}, {"middle", chainRounds / 2, 2}, {"oldest", chainRounds - 1, 2}} {
		lpa := uint64(0)
		n := testing.AllocsPerRun(200, func() {
			want := stamps[lpa][tc.index]
			v, _, err := d.VersionAt(lpa, want, at)
			if err != nil || v == nil || v.TS != want {
				t.Fatalf("VersionAt(%d, %v) = %+v, %v", lpa, want, v, err)
			}
			lpa = (lpa + 1) % chainPages
		})
		if n > tc.want {
			t.Fatalf("VersionAt of the %s version allocates %.2f times per call, want <= %.0f", tc.name, n, tc.want)
		}
	}
}

// TestRollBackAllocs pins that rolling a page back to a delta-chain version
// allocates nothing: versionAt returns the Version by value and rebuilds
// the version in the device's write-back page, which Write then takes as
// it is (the program copies it into the array). A fresh page per rollback
// would make it 1, and a defensive copy of the page before the write 2.
// The pages rolled back take turns; each write-back is a new live version,
// so the next rollback of the page writes again.
func TestRollBackAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("almanacdebug shadow assertions allocate")
	}
	d, stamps, at := deltaChains(t)
	lpa := uint64(0)
	n := testing.AllocsPerRun(2*chainPages, func() {
		when := stamps[lpa][chainRounds/2]
		done, err := d.RollBack(lpa, when, at)
		if err != nil {
			t.Fatalf("RollBack(%d, %v): %v", lpa, when, err)
		}
		at = done
		lpa = (lpa + 1) % chainPages
	})
	if n != 0 {
		t.Fatalf("RollBack to a delta-chain version allocates %.2f times per call, want 0", n)
	}
}

// chainPages and chainRounds shape deltaChains' history.
const (
	chainPages  = 8
	chainRounds = 16
)

// deltaChains builds a device holding chainRounds versions of each of
// chainPages LPAs in delta chains, each round compressed against the one
// after it so an old version decodes through every version newer than it.
// It returns the device, every LPA's version timestamps (newest first) and
// the instant the history was built by.
func deltaChains(t *testing.T) (*TimeSSD, [][]vclock.Time, vclock.Time) {
	t.Helper()
	d := newTiny(t, func(c *Config) { c.MinRetention = vclock.Day })
	at := vclock.Time(0)
	for round := 0; round < chainRounds; round++ {
		for lpa := uint64(0); lpa < chainPages; lpa++ {
			at = at.Add(vclock.Second)
			done, err := d.Write(lpa, versionPage(d, lpa, round), at)
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
	if c := d.Counters(); c.IdleCompressions == 0 || c.DeltaPagesWritten == 0 {
		t.Fatalf("idle passes compressed %d chainPages into %d delta chainPages: no chains to walk", c.IdleCompressions, c.DeltaPagesWritten)
	}
	stamps := make([][]vclock.Time, chainPages)
	for lpa := range stamps {
		vers, _, err := d.Versions(uint64(lpa), at)
		if err != nil || len(vers) != chainRounds {
			t.Fatalf("Versions(%d) = %d versions, %v; want %d", lpa, len(vers), err, chainRounds)
		}
		for _, v := range vers {
			stamps[lpa] = append(stamps[lpa], v.TS)
		}
	}
	return d, stamps, at
}

// TestWriteAllocs pins the host write path below one allocation per call in
// steady state. AllocsPerRun truncates the mean, as allocs/op does: the
// write itself allocates nothing, and each delta GC emits costs a payload
// and a buffer entry, 0.1-0.3 per write amortised. The device and write
// stream are BenchmarkSimOpsPerSecond's (pre-generated similar content
// cycling over half the logical space), measured after three passes so the
// timed writes run with GC, delta compression and delta-page flushes active.
func TestWriteAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("almanacdebug shadow assertions allocate")
	}
	d := simDevice(t)
	content := simContent(d)
	workSet := uint64(d.LogicalPages()) / 2
	at := vclock.Time(0)
	writes := uint64(0)
	write := func() {
		lpa := writes % workSet
		done, err := d.Write(lpa, content(int(writes/workSet), lpa), at)
		if err != nil {
			t.Fatal(err)
		}
		at = done.Add(vclock.Microsecond)
		writes++
	}
	for writes < 3*workSet {
		write()
	}
	before := d.Counters()
	n := testing.AllocsPerRun(int(workSet/4), write)
	after := d.Counters()
	if after.GCRuns == before.GCRuns || after.DeltasCreated == before.DeltasCreated || after.DeltaPagesWritten == before.DeltaPagesWritten {
		t.Fatalf("measured writes ran without GC (%d runs), delta compression (%d) or delta flushes (%d)",
			after.GCRuns-before.GCRuns, after.DeltasCreated-before.DeltasCreated, after.DeltaPagesWritten-before.DeltaPagesWritten)
	}
	if n != 0 {
		t.Fatalf("Write allocates %.2f times per call in steady state, want 0", n)
	}
}

// TestUpdatedBetweenAllocs pins what a full-device time query may allocate:
// the records it returns and the one array their Times share, each sized
// from the hit count, and nothing per record, per LPA scanned or per chain
// hop walked or replayed. The same three-record query is run over a short
// history and over one with four times the LPAs and three times the
// versions: walking cold (and rebuilding the time index), replaying the
// scan memo on busy channels (every query at one instant), and replaying
// it on idle ones (each query at the last one's completion); all six must
// cost the same. The shared array must not alias: each record's Times is
// capacity-limited, so appending to one leaves the next as it was.
func TestUpdatedBetweenAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("almanacdebug shadow assertions allocate")
	}
	const matches = 3
	measure := func(lpas, versions int) [3]float64 {
		d := newTiny(t, func(c *Config) {
			c.FTL.Flash.PageSize = 512
			c.MinRetention = vclock.Day // keep every version: the chains must be long
		})
		at := vclock.Time(0)
		var from, to vclock.Time
		for round := 0; round < versions; round++ {
			for lpa := uint64(0); lpa < uint64(lpas); lpa++ {
				at = at.Add(vclock.Second)
				if round == versions-1 {
					switch lpa {
					case 0:
						from = at
					case matches:
						to = at - 1
					}
				}
				done, err := d.Write(lpa, versionPage(d, lpa, round), at)
				if err != nil {
					t.Fatal(err)
				}
				at = done
			}
		}
		if stamps, _ := lpaTimestamps(d, 0, at); len(stamps) != versions {
			t.Fatalf("%d LPAs x %d versions: lpa 0 kept %d versions", lpas, versions, len(stamps))
		}
		if versions > 4 && d.Counters().DeltaPagesWritten == 0 {
			t.Fatalf("%d LPAs x %d versions: no delta chains to walk", lpas, versions)
		}
		query := func(at vclock.Time) vclock.Time {
			recs, done, err := d.UpdatedBetween(from, to, at)
			if err != nil || len(recs) != matches {
				t.Fatalf("UpdatedBetween = %d records, %v; want %d", len(recs), err, matches)
			}
			return done
		}
		recs, _, _ := d.UpdatedBetween(from, to, at)
		next := slices.Clone(recs[1].Times)
		recs[0].Times = append(recs[0].Times, -1)
		if !slices.Equal(recs[1].Times, next) {
			t.Fatalf("appending to record 0's Times changed record 1's from %v to %v", next, recs[1].Times)
		}
		loaded := testing.AllocsPerRun(20, func() { query(at) })
		walked := testing.AllocsPerRun(20, func() {
			d.gen++ // as a mutator would: the next query walks cold
			query(at)
		})
		last := query(at)
		quiet := testing.AllocsPerRun(20, func() { last = query(last) })
		return [3]float64{walked, loaded, quiet}
	}
	short, long := measure(8, 4), measure(32, 12)
	// The record slice and the Times array they share.
	const want = 2.0
	for i, path := range []string{"a walked", "a busy replayed", "an idle replayed"} {
		if short[i] != want || long[i] != want {
			t.Fatalf("%s UpdatedBetween allocates %.0f times over 8 LPAs x 4 versions and %.0f over 32 x 12, want %.0f both",
				path, short[i], long[i], want)
		}
	}
}
