package lzf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// compress is a one-shot Compressor.Compress for tests that do not care
// about table reuse.
func compress(src []byte) []byte {
	var c Compressor
	return c.Compress(nil, src)
}

func roundTrip(t *testing.T, src []byte) {
	t.Helper()
	comp := compress(src)
	dec, err := Decompress(nil, comp, len(src))
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("round trip mismatch: %d bytes in, %d out", len(src), len(dec))
	}
}

func TestRoundTripEmpty(t *testing.T) { roundTrip(t, nil) }

func TestRoundTripShort(t *testing.T) {
	for n := 1; n <= 8; n++ {
		roundTrip(t, bytes.Repeat([]byte{'x'}, n))
	}
}

func TestRoundTripRepetitive(t *testing.T) {
	src := bytes.Repeat([]byte("abcdefgh"), 512)
	comp := compress(src)
	if len(comp) >= len(src)/4 {
		t.Fatalf("repetitive data compressed to %d of %d bytes; expected much smaller", len(comp), len(src))
	}
	roundTrip(t, src)
}

func TestRoundTripAllSame(t *testing.T) {
	roundTrip(t, bytes.Repeat([]byte{0}, 4096))
	roundTrip(t, bytes.Repeat([]byte{0xff}, 4096))
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(8192)
		src := make([]byte, n)
		rng.Read(src)
		roundTrip(t, src)
	}
}

func TestRoundTripLongMatches(t *testing.T) {
	// Exercise the length-extension byte (matches > 8 bytes, up to maxMatch)
	// and matches crossing the 8 KiB window boundary.
	var src []byte
	src = append(src, bytes.Repeat([]byte{'A'}, 300)...)          // long match run
	src = append(src, make([]byte, 9000)...)                      // push past window
	src = append(src, bytes.Repeat([]byte{'A'}, 300)...)          // far reference
	src = append(src, []byte("the quick brown fox")...)           //
	src = append(src, bytes.Repeat([]byte("the quick"), 1000)...) // periodic
	roundTrip(t, src)
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(src []byte) bool {
		comp := compress(src)
		dec, err := Decompress(nil, comp, len(src))
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStructuredRoundTrip(t *testing.T) {
	// Structured inputs (limited alphabet) hit the match paths much more
	// often than uniform random bytes.
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6000)
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(r.Intn(4))
		}
		comp := compress(src)
		dec, err := Decompress(nil, comp, len(src))
		return err == nil && bytes.Equal(dec, src)
	}
	for i := 0; i < 200; i++ {
		if !f(rng.Int63()) {
			t.Fatalf("structured round trip failed")
		}
	}
}

func TestDecompressAppendsToDst(t *testing.T) {
	src := []byte("hello hello hello hello")
	comp := compress(src)
	prefix := []byte("prefix-")
	out, err := Decompress(prefix, comp, len(src))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, append([]byte("prefix-"), src...)) {
		t.Fatalf("append semantics broken: %q", out)
	}
}

func TestDecompressCorrupt(t *testing.T) {
	cases := [][]byte{
		{31},                // literal run of 32 with no data
		{0x20 | 0x1f, 0xff}, // back-reference before window start
		{7 << 5},            // truncated length extension
		{1 << 5},            // truncated offset byte
	}
	for i, c := range cases {
		if _, err := Decompress(nil, c, 1<<20); err == nil {
			t.Errorf("case %d: corrupt input decoded without error", i)
		}
	}
}

func TestDecompressTooLarge(t *testing.T) {
	src := bytes.Repeat([]byte{'z'}, 1000)
	comp := compress(src)
	if _, err := Decompress(nil, comp, 10); err == nil {
		t.Fatal("expected ErrTooLarge for tight output bound")
	}
}

func TestCompressWorstCaseBound(t *testing.T) {
	// Incompressible data must not blow up: worst case is one control byte
	// per 32 literals.
	rng := rand.New(rand.NewSource(2))
	src := make([]byte, 4096)
	rng.Read(src)
	comp := compress(src)
	bound := len(src) + (len(src)+maxLitRun-1)/maxLitRun
	if len(comp) > bound {
		t.Fatalf("compressed size %d exceeds worst-case bound %d", len(comp), bound)
	}
}

// TestCompressorMatchesPure pins the Compressor's contract: byte-identical
// output to the frozen reference loop across content shapes, sizes, and —
// the part the generation tags must get right — across sequential calls on
// one instance, where stale table entries from earlier inputs must never
// influence match selection.
func TestCompressorMatchesPure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var c Compressor
	mk := func(n int, mode int) []byte {
		src := make([]byte, n)
		switch mode % 4 {
		case 0: // zeros (XOR-delta common case)
		case 1:
			rng.Read(src)
		case 2: // sparse: zeros with scattered bytes
			for j := 0; j < n/16; j++ {
				src[rng.Intn(n)] = byte(rng.Intn(256))
			}
		case 3: // periodic runs
			for j := range src {
				src[j] = byte(j % (1 + mode))
			}
		}
		return src
	}
	for round := 0; round < 400; round++ {
		src := mk(rng.Intn(5000), round)
		want := compressRef(nil, src)
		got := c.Compress(nil, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d (len %d): compressor output diverges from the reference", round, len(src))
		}
		dec, err := Decompress(nil, got, len(src)+1)
		if err != nil || !bytes.Equal(dec, src) {
			t.Fatalf("round %d: round-trip failed: %v", round, err)
		}
	}
	// Generation wrap: force gen past the reset boundary and re-verify.
	c.gen = ^uint32(0)
	src := mk(2048, 2)
	if !bytes.Equal(c.Compress(nil, src), compressRef(nil, src)) {
		t.Fatal("compressor diverges after generation wrap")
	}
}
