package lzf

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// FuzzLZFRoundTrip checks that Compressor.Compress∘Decompress is the
// identity for any input, and that the decoder's output bound is honored.
// The compressor runs inside the GC's retained-data path, so a round-trip
// corruption here would rewrite history rather than just lose a page.
func FuzzLZFRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("a"))
	f.Add([]byte("abcabcabcabcabcabcabcabc"))
	f.Add(bytes.Repeat([]byte{0}, 4096))
	f.Add(bytes.Repeat([]byte("0123456789abcdef"), 256))
	// A run longer than the 264-byte max match plus a literal tail.
	f.Add(append(bytes.Repeat([]byte{0xAA}, 600), []byte("tail-literal-bytes")...))
	// Period exactly at the 8 KiB window boundary.
	f.Add(bytes.Repeat([]byte("x"), 8192+32))

	var c Compressor
	f.Fuzz(func(t *testing.T, src []byte) {
		comp := c.Compress(nil, src)
		got, err := Decompress(nil, comp, len(src))
		if err != nil {
			t.Fatalf("Decompress of own output failed: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("round trip mismatch: %d bytes in, %d bytes out", len(src), len(got))
		}
		if len(src) > 0 {
			// The declared bound must be enforced, not advisory.
			if _, err := Decompress(nil, comp, len(src)-1); err == nil {
				t.Fatalf("Decompress accepted output larger than its bound")
			}
		}
	})
}

// FuzzCompressorMatchesReference checks that one Compressor, reused across
// inputs the way a device reuses it across GC compressions, emits exactly
// the bytes of the frozen reference loop. The Compressor's table reuse and
// period-aware match seeding are only correct if they never change a byte;
// this is the net that does not move when either is edited.
func FuzzCompressorMatchesReference(f *testing.F) {
	// Runs of every period 1-12, long enough that matches hit maxMatch.
	for q := 1; q <= 12; q++ {
		p := make([]byte, 3*maxMatch+q)
		for j := range p {
			p[j] = byte(j % q)
		}
		f.Add(p)
	}
	// A run longer than maxMatch followed by a literal tail.
	f.Add(append(bytes.Repeat([]byte{0}, 2*maxMatch+7), "tail"...))
	// References at and just past the 8 KiB window edge.
	edge := make([]byte, maxOff+64)
	copy(edge, "window-edge-marker")
	copy(edge[maxOff:], "window-edge-marker")
	f.Add(edge)
	f.Add(edge[:maxOff+17])
	// Run-shaped residuals of 512 B and 4 KiB pages.
	rng := rand.New(rand.NewSource(27))
	for _, n := range []int{512, 4096} {
		for _, runs := range []int{1, 8, 32} {
			f.Add(runResidual(rng, n, runs))
		}
	}
	// Every way a match extension can end (TestCompressorExtension).
	for _, tc := range extensionCases() {
		f.Add(tc.src)
	}

	var c Compressor
	f.Fuzz(func(t *testing.T, src []byte) {
		got, want := c.Compress(nil, src), compressRef(nil, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-byte input: Compressor emits %d bytes, reference %d, or they differ", len(src), len(got), len(want))
		}
	})
}

// FuzzLZFDecompressArbitrary feeds arbitrary bytes to the decoder: it may
// reject them, but must never panic or exceed the output bound.
func FuzzLZFDecompressArbitrary(f *testing.F) {
	f.Add([]byte{}, 16)
	f.Add([]byte{0x00, 0x41}, 16)
	f.Add([]byte{0xFF, 0x00, 0x00}, 16)
	f.Fuzz(func(t *testing.T, data []byte, maxOut int) {
		if maxOut < 0 || maxOut > 1<<20 {
			t.Skip()
		}
		out, err := Decompress(nil, data, maxOut)
		if err == nil && len(out) > maxOut {
			t.Fatalf("Decompress returned %d bytes, bound was %d", len(out), maxOut)
		}
	})
}

// FuzzDecompressMatchesReference checks that Decompress returns exactly the
// bytes and the error class of the frozen reference decoder on any input:
// decoded payloads land on flash, and whether a corrupt delta decodes
// decides where a chain walk ends, so the zero-run fill must change
// neither.
func FuzzDecompressMatchesReference(f *testing.F) {
	var c Compressor
	for _, src := range goldenCorpus() {
		comp := c.Compress(nil, src)
		f.Add(comp, len(src))
		f.Add(comp, len(src)-1)
		if len(comp) > 1 {
			f.Add(comp[:len(comp)-1], len(src))
		}
	}
	// A zero run, then a non-zero period, then a reference before the window.
	f.Add([]byte{0x00, 0x00, 0xE0, 0x20, 0x00, 0x01, 0x07, 0x08, 0x40, 0x01, 0x20, 0x40}, 128)
	f.Fuzz(func(t *testing.T, src []byte, maxOut int) {
		if maxOut > 1<<20 {
			t.Skip()
		}
		got, gotErr := Decompress(nil, src, maxOut)
		want, wantErr := decompressRef(nil, src, maxOut)
		if errClass(gotErr) != errClass(wantErr) {
			t.Fatalf("Decompress error %v, reference %v", gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Decompress returned %d bytes, reference %d, or they differ", len(got), len(want))
		}
	})
}

// errClass maps a decoder error to the sentinel it wraps.
func errClass(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrCorrupt):
		return ErrCorrupt
	case errors.Is(err, ErrTooLarge):
		return ErrTooLarge
	}
	return err
}
