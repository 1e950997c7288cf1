package delta

import (
	"math/rand"
	"testing"

	"almanac/internal/lzf"
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

// BenchmarkDeltaEncode4K delta-encodes a page against a reference differing
// in 200 scattered bytes, through one reused compressor as the GC does.
func BenchmarkDeltaEncode4K(b *testing.B) {
	old := benchPage(1, 4096)
	ref := append([]byte(nil), old...)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		ref[rng.Intn(4096)] ^= byte(1 + rng.Intn(255))
	}
	var c lzf.Compressor
	b.SetBytes(4096)
	var out []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out = EncodeWith(&c, out[:0], old, ref)
	}
}
