package lzf

import (
	"math/rand"
	"testing"
)

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

// BenchmarkLZFCompress4K compresses a 4 KiB delta residual.
func BenchmarkLZFCompress4K(b *testing.B) {
	src := lzfCorpus(1, 4096, 200)
	b.SetBytes(4096)
	var out []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = Compress(out[:0], src)
	}
}

// BenchmarkLZFDecompress4K decompresses the same residual payload.
func BenchmarkLZFDecompress4K(b *testing.B) {
	comp := Compress(nil, lzfCorpus(1, 4096, 200))
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
