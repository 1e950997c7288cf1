package lzf

import (
	"math/rand"
	"testing"
)

// lzfCorpus builds a 4 KiB-page XOR residual with single changed bytes
// scattered over zeros: the worst case for matching, since every changed
// byte breaks a zero run.
func lzfCorpus(seed int64, n, changed int) []byte {
	rng := rand.New(rand.NewSource(seed))
	p := make([]byte, n)
	for i := 0; i < changed; i++ {
		p[rng.Intn(n)] = byte(1 + rng.Intn(255))
	}
	return p
}

// lineageResidual is the XOR residual the delta encoder compresses for a
// page of the repository benchmark's corpus kept against the version steps
// later. The corpus draws a page's first version from a 32-word dictionary
// of 16-byte words, one word in four random, and makes each next version
// by changing four runs of n/256 bytes.
func lineageResidual(seed int64, n, steps int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var dict [32][16]byte
	for i := range dict {
		rng.Read(dict[i][:])
	}
	first := make([]byte, n)
	for off := 0; off < n; off += 16 {
		if rng.Intn(4) == 0 {
			rng.Read(first[off : off+16])
		} else {
			copy(first[off:], dict[rng.Intn(32)][:])
		}
	}
	last := append([]byte(nil), first...)
	run := n / 256
	for k := 0; k < 4*steps; k++ {
		rng.Read(last[rng.Intn(n-run+1):][:run])
	}
	for i := range last {
		last[i] ^= first[i]
	}
	return last
}

// BenchmarkLZFCompress4K times the production compressor on the inputs the
// device compresses: "lineage-1" and "lineage-7" are the residuals of the
// benchmark corpus one and seven version steps apart (four 16-byte runs of
// change per step in 4 KiB of zeros), "lineage-512B" the one-step residual
// of a 512 B page, "period-7" a periodic page, "runs" what
// trace.ContentSimilar versions XOR to (16-byte runs of change in zeros),
// and "scatter" single changed bytes, the shape whose matches are too short
// for the whole-window compare to pay.
func BenchmarkLZFCompress4K(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  []byte
	}{
		{"lineage-1", lineageResidual(1, 4096, 1)},
		{"lineage-7", lineageResidual(1, 4096, 7)},
		{"lineage-512B", lineageResidual(1, 512, 1)},
		{"period-7", periodic(4096, 7)},
		{"runs", runResidual(rand.New(rand.NewSource(1)), 4096, 16)},
		{"scatter", lzfCorpus(1, 4096, 200)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var c Compressor
			b.SetBytes(int64(len(bc.src)))
			var out []byte
			for i := 0; i < b.N; i++ {
				out = c.Compress(out[:0], bc.src)
			}
		})
	}
}

// BenchmarkLZFDecompress4K times Decompress on the payloads of the same two
// residual shapes BenchmarkLZFCompress4K encodes: "runs" decodes mostly as
// zero-run back-references, "scatter" mostly as short literals.
func BenchmarkLZFDecompress4K(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  []byte
	}{
		{"runs", runResidual(rand.New(rand.NewSource(1)), 4096, 16)},
		{"scatter", lzfCorpus(1, 4096, 200)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var c Compressor
			comp := c.Compress(nil, bc.src)
			b.SetBytes(int64(len(bc.src)))
			out := make([]byte, 0, len(bc.src))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				out, err = Decompress(out[:0], comp, len(bc.src))
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
