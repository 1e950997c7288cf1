package bench

import (
	"math/rand"
	"testing"

	"almanac/internal/bloom"
	"almanac/internal/core"
	"almanac/internal/delta"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/lzf"
	"almanac/internal/trace"
	"almanac/internal/vclock"
)

// benchPage builds a dense compressible page (small-alphabet bytes).
func benchPage(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(rng.Intn(8)) // compressible
	}
	return p
}

// lzfCorpus builds the page shape almost every production Compress call
// sees: the XOR residual of two adjacent versions of a page — mostly zero
// with scattered changed bytes (trace.ContentSimilar versions differ in
// ~PageSize/8·ratio single bytes, and delta.Encode XORs them before
// compressing). Raw-page compression of dense data is the rare cold path
// (idle compression of never-overwritten pages).
func lzfCorpus(seed int64, n, changed int) []byte {
	rng := rand.New(rand.NewSource(seed))
	p := make([]byte, n)
	for i := 0; i < changed; i++ {
		p[rng.Intn(n)] = byte(1 + rng.Intn(255))
	}
	return p
}

// LZFCompress4K compresses a 4 KiB delta residual.
func LZFCompress4K(b *testing.B) {
	src := lzfCorpus(1, 4096, 200)
	b.SetBytes(4096)
	var out []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = lzf.Compress(out[:0], src)
	}
}

// LZFDecompress4K decompresses the same residual payload.
func LZFDecompress4K(b *testing.B) {
	comp := lzf.Compress(nil, lzfCorpus(1, 4096, 200))
	b.SetBytes(4096)
	var out []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, err = lzf.Decompress(out[:0], comp, 4096)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// DeltaEncode4K delta-encodes a page against a reference differing in 200
// scattered bytes.
func DeltaEncode4K(b *testing.B) {
	old := benchPage(1, 4096)
	ref := append([]byte(nil), old...)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		ref[rng.Intn(4096)] ^= byte(1 + rng.Intn(255))
	}
	b.SetBytes(4096)
	var out []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out = delta.Encode(out[:0], old, ref)
	}
}

// BloomChainInvalidate appends invalidations to a Bloom-filter chain.
func BloomChainInvalidate(b *testing.B) {
	c := bloom.NewChain(4096, 0.001, 16, 0)
	for i := 0; i < b.N; i++ {
		c.Invalidate(uint64(i), vclock.Time(i))
	}
}

// BloomChainContains probes a populated Bloom-filter chain.
func BloomChainContains(b *testing.B) {
	c := bloom.NewChain(4096, 0.001, 16, 0)
	for i := 0; i < 100000; i++ {
		c.Invalidate(uint64(i), vclock.Time(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Contains(uint64(i % 200000))
	}
}

func benchDevice(b *testing.B) *core.TimeSSD {
	b.Helper()
	fc := flash.DefaultConfig()
	fc.BlocksPerPlane = 128
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0
	d, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// TimeSSDWrite streams host writes over half the logical space.
func TimeSSDWrite(b *testing.B) {
	d := benchDevice(b)
	gen := trace.NewContentGen(d.PageSize(), trace.ContentSimilar, 1)
	logical := uint64(d.LogicalPages()) / 2
	at := vclock.Time(0)
	b.SetBytes(int64(d.PageSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lpa := uint64(i) % logical
		done, err := d.Write(lpa, gen.NextVersion(lpa), at)
		if err != nil {
			b.Fatal(err)
		}
		at = done.Add(vclock.Millisecond)
	}
}

// TimeSSDRead reads the latest versions of a filled region.
func TimeSSDRead(b *testing.B) {
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

// VersionsQuery walks 16-version delta chains (the §3.7 expensive path).
func VersionsQuery(b *testing.B) {
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

// TimeQueryScan is one full-device time query (core.UpdatedBetween, what
// TimeKits' TimeQueryRange runs) per iteration over a history shaped like
// the repo benchmark's timetravel-4k at a quarter of its LPAs: 12 rounds of
// writes over 1024 pages with announced idle after each round, so all but
// the live versions sit in delta chains and the scan is chain hops. The
// 100 ms query window moves through the rounds, matching ~100 pages.
func TimeQueryScan(b *testing.B) {
	const (
		lpas   = 1024
		rounds = 12
	)
	d := benchDevice(b)
	gen := trace.NewContentGen(d.PageSize(), trace.ContentSimilar, 1)
	stamp := func(round, lpa int) vclock.Time {
		return vclock.Time(0).Add(vclock.Duration(round)*vclock.Minute + vclock.Duration(lpa)*vclock.Millisecond)
	}
	for r := 0; r < rounds; r++ {
		for lpa := 0; lpa < lpas; lpa++ {
			if _, err := d.Write(uint64(lpa), gen.NextVersion(uint64(lpa)), stamp(r, lpa)); err != nil {
				b.Fatal(err)
			}
		}
		d.Idle(stamp(r, lpas).Add(vclock.Second), stamp(r+1, 0))
	}
	at, err := d.FlushDeltas(stamp(rounds, 0))
	if err != nil {
		b.Fatal(err)
	}
	if ts, _, _ := d.Timestamps(0, at); len(ts) != rounds {
		b.Fatalf("history kept %d of %d versions", len(ts), rounds)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := stamp(i%rounds, (i*97)%(lpas-100))
		recs, _, err := d.UpdatedBetween(from, from.Add(100*vclock.Millisecond), at)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) == 0 {
			b.Fatal("no records")
		}
	}
}
