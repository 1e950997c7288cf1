package delta

import (
	"math/rand"
	"testing"
)

// TestEncodeAllocs pins the steady-state zero-allocation contract of the
// encoder: with a reused dst and Encoder, whose residual page the first
// call sizes, Encode must not allocate.
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

	var e Encoder
	out := make([]byte, 0, 2*len(old))
	if n := testing.AllocsPerRun(100, func() {
		_, out = e.Encode(out[:0], old, ref)
	}); n != 0 {
		t.Fatalf("Encode allocates %.2f times per call in steady state, want 0", n)
	}

	// The raw fallback (incompressible page) must also stay allocation-free
	// with a reused dst.
	noise := make([]byte, 4096)
	rng.Read(noise)
	if n := testing.AllocsPerRun(100, func() {
		_, out = e.Encode(out[:0], noise, nil)
	}); n != 0 {
		t.Fatalf("Encode's raw fallback allocates %.2f times per call, want 0", n)
	}
}
