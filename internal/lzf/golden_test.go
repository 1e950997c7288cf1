package lzf

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// runResidual builds the XOR residual of two trace.ContentSimilar versions
// of a page: zeros with `runs` 16-byte runs of changed bytes.
func runResidual(rng *rand.Rand, n, runs int) []byte {
	p := make([]byte, n)
	for r := 0; r < runs; r++ {
		at := rng.Intn(n)
		for j := at; j < at+16 && j < n; j++ {
			p[j] = byte(1 + rng.Intn(255))
		}
	}
	return p
}

// periodic is n bytes of period q.
func periodic(n, q int) []byte {
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(j%q) * 37
	}
	return p
}

// goldenCorpus is a fixed, seeded set of the input shapes the device
// compresses: run-shaped residuals of 512 B and 4 KiB pages, single-byte
// scatter, periodic input and random input.
func goldenCorpus() [][]byte {
	rng := rand.New(rand.NewSource(27))
	var c [][]byte
	for _, n := range []int{512, 4096} {
		for runs := 0; runs <= 32; runs += 4 {
			c = append(c, runResidual(rng, n, runs))
		}
		for k := 1; k <= 4; k++ {
			p := make([]byte, n)
			for j := 0; j < k*n/64; j++ {
				p[rng.Intn(n)] = byte(1 + rng.Intn(255))
			}
			c = append(c, p)
		}
		for q := 1; q <= 12; q++ {
			c = append(c, periodic(n, q))
		}
		p := make([]byte, n)
		rng.Read(p)
		c = append(c, p)
	}
	return c
}

// TestCompressorGolden pins the bytes Compressor.Compress emits over
// goldenCorpus. Compressed payloads land on simulated flash, so their sizes
// feed every layout, write-amplification and retention number the simulator
// reports: any change to match selection moves this digest.
func TestCompressorGolden(t *testing.T) {
	const want = 0x25ca55f5839054d1
	var c Compressor
	h := fnv.New64a()
	var out []byte
	for _, src := range goldenCorpus() {
		out = c.Compress(out[:0], src)
		h.Write(out)
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("Compressor output digest %#x, want %#x", got, want)
	}
}
