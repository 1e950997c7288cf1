package delta

import (
	"math/rand"
	"testing"

	"almanac/internal/lzf"
)

// TestEncodeAllocs pins the steady-state zero-allocation contract of the
// encoder: with a reused dst and compressor and a warm xorScratch pool,
// EncodeWith must not allocate. A GC pause during the measured runs can
// drain the pool and cost one refill, so a nonzero reading gets one retry
// before it counts as a regression.
func TestEncodeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	old := make([]byte, 4096)
	for i := range old {
		old[i] = byte(rng.Intn(8))
	}
	ref := append([]byte(nil), old...)
	for i := 0; i < 200; i++ {
		ref[rng.Intn(len(ref))] ^= byte(1 + rng.Intn(255))
	}

	var c lzf.Compressor
	out := make([]byte, 0, 2*len(old))
	measure := func() float64 {
		return testing.AllocsPerRun(100, func() {
			_, out = EncodeWith(&c, out[:0], old, ref)
		})
	}
	n := measure()
	if n != 0 {
		n = measure()
	}
	if n != 0 {
		t.Fatalf("EncodeWith allocates %.2f times per call in steady state, want 0", n)
	}

	// The raw fallback (incompressible page) must also stay allocation-free
	// with a reused dst.
	noise := make([]byte, 4096)
	rng.Read(noise)
	n = testing.AllocsPerRun(100, func() {
		_, out = EncodeWith(&c, out[:0], noise, nil)
	})
	if n != 0 {
		n = testing.AllocsPerRun(100, func() {
			_, out = EncodeWith(&c, out[:0], noise, nil)
		})
	}
	if n != 0 {
		t.Fatalf("EncodeWith raw fallback allocates %.2f times per call, want 0", n)
	}
}
