package core

import (
	"testing"

	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/trace"
	"almanac/internal/vclock"
)

// deviceOn builds a default TimeSSD over the given flash geometry with no
// retention lower bound, so the window adapts freely under the stream.
func deviceOn(b testing.TB, fc flash.Config) *TimeSSD {
	b.Helper()
	cfg := DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0
	d, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func benchDevice(b testing.TB) *TimeSSD {
	fc := flash.DefaultConfig()
	fc.BlocksPerPlane = 128
	return deviceOn(b, fc)
}

// BenchmarkTimeSSDWrite streams host writes over half the logical space,
// each a similar successive version of its page. Content is generated
// before the timer starts (simContent), so only the write path is timed.
func BenchmarkTimeSSDWrite(b *testing.B) {
	d := benchDevice(b)
	content := simContent(d)
	logical := uint64(d.LogicalPages()) / 2
	at := vclock.Time(0)
	b.SetBytes(int64(d.PageSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lpa := uint64(i) % logical
		done, err := d.Write(lpa, content(i/int(logical), lpa), at)
		if err != nil {
			b.Fatal(err)
		}
		at = done.Add(vclock.Millisecond)
	}
}

// BenchmarkTimeSSDRead reads the latest versions of a filled region.
func BenchmarkTimeSSDRead(b *testing.B) {
	d := benchDevice(b)
	gen := trace.NewContentGen(d.PageSize(), trace.ContentSimilar, 1)
	at, err := trace.Fill(d, 512, gen, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(d.PageSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Read(uint64(i)%512, at); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVersionsQuery walks 16-version delta chains (the §3.7 expensive path).
func BenchmarkVersionsQuery(b *testing.B) {
	d := benchDevice(b)
	gen := trace.NewContentGen(d.PageSize(), trace.ContentSimilar, 1)
	at := vclock.Time(0)
	// 16 versions each over 64 pages.
	for v := 0; v < 16; v++ {
		for lpa := uint64(0); lpa < 64; lpa++ {
			done, err := d.Write(lpa, gen.NextVersion(lpa), at)
			if err != nil {
				b.Fatal(err)
			}
			at = done.Add(vclock.Millisecond)
		}
	}
	// Idle-compress the retained versions so queries walk §3.7 delta
	// chains (the expensive path) rather than raw data pages.
	d.Idle(at, at.Add(vclock.Hour))
	at = at.Add(vclock.Hour)
	done, err := d.FlushDeltas(at)
	if err != nil {
		b.Fatal(err)
	}
	at = done
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vers, _, err := d.Versions(uint64(i)%64, at)
		if err != nil {
			b.Fatal(err)
		}
		if len(vers) == 0 {
			b.Fatal("no versions")
		}
	}
}

// historyLPAs and historyRounds shape the history roundHistory builds.
const (
	historyLPAs   = 1024
	historyRounds = 12
)

// roundHistory builds a history shaped like the repo benchmark's
// timetravel-4k and rollback-4k at a quarter of their LPAs: 12 rounds of
// writes over 1024 pages with announced idle after each round, so all but
// the live versions sit in delta chains, each round compressed against the
// next. It returns the device, the first instant after the history, and
// the write stamp of (round, lpa).
func roundHistory(b *testing.B) (*TimeSSD, vclock.Time, func(round, lpa int) vclock.Time) {
	d := benchDevice(b)
	gen := trace.NewContentGen(d.PageSize(), trace.ContentSimilar, 1)
	stamp := func(round, lpa int) vclock.Time {
		return vclock.Time(0).Add(vclock.Duration(round)*vclock.Minute + vclock.Duration(lpa)*vclock.Millisecond)
	}
	for r := 0; r < historyRounds; r++ {
		for lpa := 0; lpa < historyLPAs; lpa++ {
			if _, err := d.Write(uint64(lpa), gen.NextVersion(uint64(lpa)), stamp(r, lpa)); err != nil {
				b.Fatal(err)
			}
		}
		d.Idle(stamp(r, historyLPAs).Add(vclock.Second), stamp(r+1, 0))
	}
	at, err := d.FlushDeltas(stamp(historyRounds, 0))
	if err != nil {
		b.Fatal(err)
	}
	if ts, _ := lpaTimestamps(d, 0, at); len(ts) != historyRounds {
		b.Fatalf("history kept %d of %d versions", len(ts), historyRounds)
	}
	return d, at, stamp
}

// BenchmarkTimeQueryScan is one full-device time query (core.UpdatedBetween,
// what TimeKits' TimeQueryRange runs) per iteration over roundHistory. The
// 100 ms query window moves through the rounds, matching ~100 pages. The
// cold sub-benchmark walks every chain each query. The other two replay the
// scan memo, as queries on a device nothing has mutated since do: loaded
// issues every query at one instant, so each finds the channels still busy
// with the last one's reads and runs its reads dry on their horizons; quiet
// issues each at the last one's completion, when every channel is idle, so
// the replay shifts the memo's cached idle-start outcome. Both apply their
// outcome to the array in one step.
func BenchmarkTimeQueryScan(b *testing.B) {
	d, at, stamp := roundHistory(b)
	for _, path := range []string{"cold", "loaded", "quiet"} {
		b.Run(path, func(b *testing.B) {
			when := at
			for i := 0; i < b.N; i++ {
				if path == "cold" {
					d.gen++ // as a mutator would: every query walks the chains
				}
				from := stamp(i%historyRounds, (i*97)%(historyLPAs-100))
				recs, done, err := d.UpdatedBetween(from, from.Add(100*vclock.Millisecond), when)
				if err != nil {
					b.Fatal(err)
				}
				if len(recs) == 0 {
					b.Fatal("no records")
				}
				if path == "quiet" {
					when = done
				}
			}
		})
	}
}

// BenchmarkVersionAt is one VersionAt per iteration over roundHistory, the
// query behind RollBack and AddrQuery, cycling through the LPAs so the
// 12 k retained versions overflow the reference cache as on rollback-4k.
// The target is the live head, the middle round, or the oldest round, which
// decodes through every newer version of its chain on a cache miss.
func BenchmarkVersionAt(b *testing.B) {
	d, at, stamp := roundHistory(b)
	for _, tc := range []struct {
		name  string
		round int
	}{{"head", historyRounds - 1}, {"middle", historyRounds / 2}, {"oldest", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lpa := (i * 7) % historyLPAs
				want := stamp(tc.round, lpa)
				v, _, err := d.VersionAt(uint64(lpa), want, at)
				if err != nil {
					b.Fatal(err)
				}
				if v == nil || v.TS != want {
					b.Fatalf("VersionAt(%d, %v) = %+v", lpa, want, v)
				}
			}
		})
	}
}

// simDevice builds the BenchmarkSimOpsPerSecond device: 512-byte sectors (the
// NVMe LBA size) over the default channel fan-out. Small pages keep the
// per-op byte work (copies, XOR, compression) proportionally small, so
// the benchmark weighs exactly what a million-IOPS core is about — the
// per-op constant factor of the event loop, mapping tables and version
// store — rather than host memory bandwidth.
func simDevice(b testing.TB) *TimeSSD {
	fc := flash.DefaultConfig()
	fc.PageSize = 512
	fc.PagesPerBlock = 128
	fc.BlocksPerPlane = 128
	return deviceOn(b, fc)
}

// simContent pre-generates the page content of the timed write streams,
// so no measured op pays for workload synthesis: content(round, lpa) is the
// round-th successive similar version of the lineage lpa falls in.
func simContent(d *TimeSSD) func(round int, lpa uint64) []byte {
	const (
		templates = 512 // distinct page lineages shared across the LPA space
		rounds    = 6   // pre-generated successive versions per lineage
	)
	gen := trace.NewContentGen(d.PageSize(), trace.ContentSimilar, 1)
	corpus := make([][][]byte, rounds)
	for r := range corpus {
		corpus[r] = make([][]byte, templates)
	}
	for k := 0; k < templates; k++ {
		for r := 0; r < rounds; r++ {
			corpus[r][k] = append([]byte(nil), gen.NextVersion(uint64(k))...)
		}
	}
	return func(round int, lpa uint64) []byte {
		return corpus[round%rounds][lpa%templates]
	}
}

// BenchmarkSimOpsPerSecond is the end-to-end simulator throughput benchmark: a
// mixed host workload (8 writes : 7 reads : 1 version query per 16 ops)
// driven through core.TimeSSD. The write stream covers half the logical
// space — the same capacity pressure BenchmarkTimeSSDWrite applies — so the
// adaptive retention window, GC and the version store all reach steady
// state instead of growing with b.N. All page content is generated
// before the timer starts, so the number measures the simulator hot
// path — FTL mapping, NAND state, version retention, GC — rather than
// workload synthesis. The inverse of ns/op is the headline "simulated
// IOPS" figure; benchmark/'s sim-mixed-512 workload has the same shape.
func BenchmarkSimOpsPerSecond(b *testing.B) {
	d := simDevice(b)
	workSet := uint64(d.LogicalPages()) / 2
	content := simContent(d)
	at := vclock.Time(0)
	// Prefill the working set so every read and version query hits live
	// data and the device starts the timed loop under GC pressure.
	for lpa := uint64(0); lpa < workSet; lpa++ {
		done, err := d.Write(lpa, content(0, lpa), at)
		if err != nil {
			b.Fatal(err)
		}
		at = done.Add(vclock.Microsecond)
	}
	b.SetBytes(int64(d.PageSize()))
	b.ResetTimer()
	var writes, reads, queries int
	for i := 0; i < b.N; i++ {
		switch {
		case i%16 == 15: // version query
			lpa := uint64(queries) % workSet
			vers, _, err := d.Versions(lpa, at)
			if err != nil {
				b.Fatal(err)
			}
			if len(vers) == 0 {
				b.Fatal("no versions")
			}
			queries++
		case i%2 == 0: // write
			lpa := uint64(writes) % workSet
			done, err := d.Write(lpa, content(1+writes/int(workSet), lpa), at)
			if err != nil {
				b.Fatal(err)
			}
			at = done.Add(vclock.Microsecond)
			writes++
		default: // read
			lpa := uint64(reads) % workSet
			if _, _, err := d.Read(lpa, at); err != nil {
				b.Fatal(err)
			}
			reads++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}
