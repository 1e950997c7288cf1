package core

import (
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
// coexist; with the result slice and its one doubling past 8 that is 17.
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
	if n := measure(16, true); n > 17 {
		t.Fatalf("Versions allocates %.2f times per call over a 16-version delta chain, want <= 17 (15 decoded versions, the slice and its doubling)", n)
	}
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

// TestRefCacheSteadyStateAllocs pins the decoded-version cache at zero
// heap traffic once warm: hits touch nothing, and an eviction-refill cycle
// with same-sized payloads reuses the evicted entry's buffer capacity, its
// arena slot (via the free list), and the byKey map's deleted cells.
func TestRefCacheSteadyStateAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("almanacdebug shadow assertions allocate")
	}
	c := newRefCache(4, 64)
	buf := make([]byte, 512)
	for i := uint64(0); i < 4; i++ {
		c.put(i, vclock.Time(i), buf)
	}
	i := uint64(0)
	n := testing.AllocsPerRun(200, func() {
		if got := c.get(i, vclock.Time(i)); got == nil {
			t.Fatal("unexpected miss on warm cache")
		}
		i = (i + 1) % 4
	})
	if n != 0 {
		t.Fatalf("warm refcache hit allocates %.2f times per call, want 0", n)
	}
	j := uint64(0)
	n = testing.AllocsPerRun(200, func() {
		c.put(8+j, vclock.Time(j), buf)
		j = (j + 1) % 8
	})
	if n != 0 {
		t.Fatalf("refcache eviction cycle allocates %.2f times per put, want 0", n)
	}
}

// TestUpdatedBetweenAllocs pins what a full-device time query may allocate:
// the records it returns (one Times slice each, plus the doublings of the
// record slice), and nothing per LPA scanned or per chain hop walked. The
// same three-record query is run over a short history and over one with
// four times the LPAs and three times the versions; both must cost the same.
func TestUpdatedBetweenAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("almanacdebug shadow assertions allocate")
	}
	const matches = 3
	measure := func(lpas, versions int) float64 {
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
		if stamps, _, _ := d.appendTimestamps(nil, 0, at); len(stamps) != versions {
			t.Fatalf("%d LPAs x %d versions: lpa 0 kept %d versions", lpas, versions, len(stamps))
		}
		if versions > 4 && d.Counters().DeltaPagesWritten == 0 {
			t.Fatalf("%d LPAs x %d versions: no delta chains to walk", lpas, versions)
		}
		return testing.AllocsPerRun(20, func() {
			recs, _, err := d.UpdatedBetween(from, to, at)
			if err != nil || len(recs) != matches {
				t.Fatalf("UpdatedBetween = %d records, %v; want %d", len(recs), err, matches)
			}
		})
	}
	short, long := measure(8, 4), measure(32, 12)
	// 3 Times slices + the record slice growing 1 -> 2 -> 4.
	if want := float64(2 * matches); short != want || long != want {
		t.Fatalf("UpdatedBetween allocates %.0f times over 8 LPAs x 4 versions and %.0f over 32 x 12, want %.0f both", short, long, want)
	}
}
