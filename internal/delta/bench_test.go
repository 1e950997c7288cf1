package delta

import (
	"math/rand"
	"testing"
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

// lineagePair returns two successive versions of a page the way the
// repository benchmark's corpus makes them: the first drawn from a 32-word
// dictionary of 16-byte words, one word in four random, the second a copy
// with four runs of n/256 changed bytes.
func lineagePair(seed int64, n int) (old, ref []byte) {
	rng := rand.New(rand.NewSource(seed))
	var dict [32][16]byte
	for i := range dict {
		rng.Read(dict[i][:])
	}
	old = make([]byte, n)
	for off := 0; off < n; off += 16 {
		if rng.Intn(4) == 0 {
			rng.Read(old[off : off+16])
		} else {
			copy(old[off:], dict[rng.Intn(32)][:])
		}
	}
	ref = append([]byte(nil), old...)
	run := n / 256
	for k := 0; k < 4; k++ {
		rng.Read(ref[rng.Intn(n-run+1):][:run])
	}
	return old, ref
}

// BenchmarkDeltaEncode4K delta-encodes a page against its reference through
// one reused compressor, as the GC does: "scatter" differs in 200 scattered
// bytes, "lineage" is one step of the benchmark corpus (four 16-byte runs).
func BenchmarkDeltaEncode4K(b *testing.B) {
	old := benchPage(1, 4096)
	ref := append([]byte(nil), old...)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		ref[rng.Intn(4096)] ^= byte(1 + rng.Intn(255))
	}
	lold, lref := lineagePair(1, 4096)
	for _, bc := range []struct {
		name     string
		old, ref []byte
	}{
		{"scatter", old, ref},
		{"lineage", lold, lref},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var e Encoder
			b.SetBytes(int64(len(bc.old)))
			var out []byte
			for i := 0; i < b.N; i++ {
				_, out = e.Encode(out[:0], bc.old, bc.ref)
			}
		})
	}
}

// BenchmarkDeltaDecode4K decodes BenchmarkDeltaEncode4K's residuals back
// onto their references. "onto" is DecodeOnto, as a chain walk runs it:
// the reference copied into the page, the residual applied onto it.
// "twopass" is the frozen two-pass decoder into a reused page: decompress
// the residual, then XOR the reference onto it. Both residuals apply in
// place, so "onto" reports inplace/op 1: the lineage residual's nonzero
// bytes are all literals, and the scatter residual holds matches that
// repeat nonzero bytes (its "00 00 x" strings recur), each applied as
// segments of the payload it copies.
func BenchmarkDeltaDecode4K(b *testing.B) {
	old := benchPage(1, 4096)
	ref := append([]byte(nil), old...)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		ref[rng.Intn(4096)] ^= byte(1 + rng.Intn(255))
	}
	lold, lref := lineagePair(1, 4096)
	for _, bc := range []struct {
		name     string
		old, ref []byte
	}{
		{"scatter", old, ref},
		{"lineage", lold, lref},
	} {
		var e Encoder
		enc, payload := e.Encode(nil, bc.old, bc.ref)
		if enc != EncXORLZF {
			b.Fatalf("%s: encoded as %d, want an XOR residual", bc.name, enc)
		}
		b.Run(bc.name+"/onto", func(b *testing.B) {
			var s Scratch
			page := make([]byte, len(bc.ref))
			b.SetBytes(int64(len(page)))
			for i := 0; i < b.N; i++ {
				copy(page, bc.ref)
				if err := DecodeOnto(page, enc, payload, &s); err != nil {
					b.Fatal(err)
				}
			}
			applied, _ := s.Decodes()
			b.ReportMetric(float64(applied)/float64(b.N), "inplace/op")
		})
		b.Run(bc.name+"/twopass", func(b *testing.B) {
			page := make([]byte, 0, len(bc.ref))
			b.SetBytes(int64(len(bc.ref)))
			for i := 0; i < b.N; i++ {
				var err error
				if page, err = decodeRef(page[:0], enc, payload, bc.ref, len(bc.ref)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
