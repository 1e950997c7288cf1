package lzf

import "testing"

// TestCodecAllocs pins the zero-allocation contract of the codec hot path:
// with a reused, pre-sized destination, Compressor.Compress and Decompress
// must not allocate at all — both run on every retained version the device
// moves — and ApplyXOR must not once its scratch has held a residual's
// segments.
func TestCodecAllocs(t *testing.T) {
	// Sparse delta-residual shape: mostly zero with scattered set bytes,
	// the input almost every production call sees.
	src := make([]byte, 4096)
	for i := 0; i < 200; i++ {
		src[(i*61)%len(src)] = byte(1 + i%255)
	}

	var c Compressor
	dst := make([]byte, 0, 2*len(src))
	if n := testing.AllocsPerRun(100, func() {
		dst = c.Compress(dst[:0], src)
	}); n != 0 {
		t.Fatalf("Compressor.Compress allocates %.2f times per call, want 0", n)
	}

	comp := c.Compress(nil, src)
	out := make([]byte, 0, len(src))
	if n := testing.AllocsPerRun(100, func() {
		var err error
		out, err = Decompress(out[:0], comp, len(src))
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Decompress allocates %.2f times per call, want 0", n)
	}

	page := make([]byte, len(src))
	var s XORScratch
	ApplyXOR(page, comp, &s)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := ApplyXOR(page, comp, &s); !ok {
			t.Fatal("ApplyXOR refused a residual it applied before")
		}
	}); n != 0 {
		t.Fatalf("ApplyXOR allocates %.2f times per call in steady state, want 0", n)
	}
}
