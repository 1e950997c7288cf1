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

// BenchmarkLZFCompress4K times the production compressor on a 4 KiB delta
// residual of each shape: "runs" is what trace.ContentSimilar versions and
// the benchmark corpus XOR to (16-byte runs of change in zeros), "scatter"
// is single changed bytes.
func BenchmarkLZFCompress4K(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  []byte
	}{
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

// BenchmarkLZFDecompress4K decompresses the scatter residual's payload.
func BenchmarkLZFDecompress4K(b *testing.B) {
	var c Compressor
	comp := c.Compress(nil, lzfCorpus(1, 4096, 200))
	b.SetBytes(4096)
	var out []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, err = Decompress(out[:0], comp, 4096)
		if err != nil {
			b.Fatal(err)
		}
	}
}
