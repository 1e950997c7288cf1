package bloom

import (
	"testing"

	"almanac/internal/vclock"
)

// BenchmarkBloomChainInvalidate appends invalidations to a Bloom-filter chain.
func BenchmarkBloomChainInvalidate(b *testing.B) {
	c := NewChain(4096, 0.001, 16, 0)
	for i := 0; i < b.N; i++ {
		c.Invalidate(uint64(i), vclock.Time(i))
	}
}

// BenchmarkBloomChainContains probes a populated Bloom-filter chain.
func BenchmarkBloomChainContains(b *testing.B) {
	c := NewChain(4096, 0.001, 16, 0)
	for i := 0; i < 100000; i++ {
		c.Invalidate(uint64(i), vclock.Time(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Contains(uint64(i % 200000))
	}
}
