package lzf

import (
	"bytes"
	"fmt"
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

// extensionCase is an input whose first back-reference lands at position
// at and extends exactly want bytes: random bytes, then a copy of their
// first bytes, cut at a chosen length or broken by a changed byte.
type extensionCase struct {
	name     string
	src      []byte
	at, want int // -1: no check of the first back-reference (periodic input)
}

// extensionCases covers every way Compress's match extension can end: the
// byte probe, the first word, the whole-window compare and the word loop
// behind it, and the byte tail, at maxMatch and at a limit the end of the
// input sets.
func extensionCases() []extensionCase {
	rng := rand.New(rand.NewSource(39))
	pre := make([]byte, maxMatch+16)
	rng.Read(pre)
	// build copies pre[:l] after pre, changes the copied byte at m (m < 0:
	// none), and appends tail random bytes whose first one breaks the copy.
	build := func(l, m, tail int) []byte {
		src := append(append([]byte(nil), pre...), pre[:l]...)
		if m >= 0 {
			src[len(pre)+m] ^= 0xff
		}
		for k := 0; k < tail; k++ {
			b := byte(rng.Intn(256))
			if k == 0 && b == pre[l] {
				b ^= 0xff
			}
			src = append(src, b)
		}
		return src
	}
	n := len(pre)
	var cs []extensionCase
	add := func(name string, src []byte, want int) {
		cs = append(cs, extensionCase{name, src, n, want})
	}
	add("ends at maxMatch", build(maxMatch, -1, 40), maxMatch)
	add("runs past maxMatch", build(maxMatch+8, -1, 40), maxMatch)
	add("mismatch at maxMatch", build(maxMatch+8, maxMatch, 40), maxMatch)
	for l := minMatch; l < maxMatch; l++ {
		add(fmt.Sprintf("ends at len(src), limit %d", l), build(l, -1, 0), l)
	}
	for _, limit := range []int{maxMatch, 100, 20} {
		for d := 1; d <= 7; d++ {
			if limit == maxMatch {
				add(fmt.Sprintf("%d short of maxMatch", d), build(maxMatch+8, maxMatch-d, 40), maxMatch-d)
			} else {
				add(fmt.Sprintf("%d short of len(src), limit %d", d, limit), build(limit, limit-d, 0), limit-d)
			}
		}
	}
	for m := minMatch; m < minMatch+8; m++ {
		add(fmt.Sprintf("probe or first word ends at %d", m), build(maxMatch, m, 40), m)
	}
	for m := minMatch + 8; m < maxMatch; m++ {
		add(fmt.Sprintf("window mismatch at %d", m), build(maxMatch, m, 40), m)
	}
	for q := 1; q <= 8; q++ {
		cs = append(cs, extensionCase{fmt.Sprintf("period %d", q), periodic(3*maxMatch+q+5, q), -1, -1})
	}
	return cs
}

// firstMatch returns the output position and length of the first
// back-reference in an LZF stream, or -1, -1 if it has none.
func firstMatch(comp []byte) (at, length int) {
	out := 0
	for i := 0; i < len(comp); {
		ctrl := comp[i]
		if ctrl < 0x20 {
			out += int(ctrl) + 1
			i += int(ctrl) + 2
			continue
		}
		l := int(ctrl >> 5)
		if l == 7 {
			l += int(comp[i+1])
		}
		return out, l + 2
	}
	return -1, -1
}

// TestCompressorExtension checks every way a match extension can end
// against the frozen reference, through a fresh Compressor and through one
// reused across all cases, and checks that each constructed case reaches
// the extension it names: its first back-reference has the intended
// position and length.
func TestCompressorExtension(t *testing.T) {
	var reused Compressor
	for _, tc := range extensionCases() {
		want := compressRef(nil, tc.src)
		if got := compress(tc.src); !bytes.Equal(got, want) {
			t.Fatalf("%s: Compress diverges from the reference", tc.name)
		}
		if got := reused.Compress(nil, tc.src); !bytes.Equal(got, want) {
			t.Fatalf("%s: reused Compressor diverges from the reference", tc.name)
		}
		if tc.at >= 0 {
			if at, l := firstMatch(want); at != tc.at || l != tc.want {
				t.Fatalf("%s: first match at %d of length %d, case built for %d of length %d", tc.name, at, l, tc.at, tc.want)
			}
		}
		roundTrip(t, tc.src)
	}
}

// twoPassXOR is what ApplyXOR stands in for: decompress the residual, then
// XOR it onto a copy of page. ok is false where Decompress rejects src or
// it decodes to another length than the page.
func twoPassXOR(page, src []byte) (out []byte, ok bool) {
	res, err := Decompress(nil, src, len(page))
	if err != nil || len(res) != len(page) {
		return nil, false
	}
	out = append([]byte(nil), page...)
	for i := range out {
		out[i] ^= res[i]
	}
	return out, true
}

// checkApplyXOR applies src onto a copy of page and checks the result:
// byte for byte the two-pass decode where ApplyXOR accepts, page untouched
// where it does not, and never an accept where the two-pass decode
// rejects. It reports whether ApplyXOR accepted.
func checkApplyXOR(t *testing.T, name string, page, src []byte, s *XORScratch) bool {
	t.Helper()
	got := append([]byte(nil), page...)
	applied := ApplyXOR(got, src, s)
	want, ok := twoPassXOR(page, src)
	switch {
	case applied && !ok:
		t.Fatalf("%s: ApplyXOR accepted a payload the two-pass decode rejects", name)
	case applied && !bytes.Equal(got, want):
		t.Fatalf("%s: ApplyXOR's page differs from the two-pass decode's", name)
	case !applied && !bytes.Equal(got, page):
		t.Fatalf("%s: ApplyXOR reported false but changed the page", name)
	}
	return applied
}

// TestApplyXORLeavesPageOnReject pins ApplyXOR's contract on the payloads
// it must refuse, each built from a valid residual so that the refusal
// comes after literals the apply would have written: every corruption
// Decompress reports, a residual one byte short of the page or one byte
// over it, and a match that copies a nonzero byte. The page must come back
// byte-identical. The accepted case and seeded mutations of corpus
// payloads are checked against the two-pass decode too.
func TestApplyXORLeavesPageOnReject(t *testing.T) {
	const n = 512
	page := periodic(n, 7)
	var s XORScratch
	var c Compressor
	// Literals at 0 and 100, zero runs around them: every match copies zeros.
	res := make([]byte, n)
	copy(res, "0123456789abc")
	copy(res[100:], "ZYXWVUTSRQ")
	valid := c.Compress(nil, res)
	if !checkApplyXOR(t, "valid residual", page, valid, &s) {
		t.Fatal("ApplyXOR refused a residual whose matches copy only zeros")
	}
	lit := int(valid[0]) + 2 // the first literal run, control byte included
	nonzero := make([]byte, n)
	for i := 200; i < 300; i++ {
		nonzero[i] = 0x5a // a nonzero run: literal, then a match copying it
	}
	for _, tc := range []struct {
		name string
		src  []byte
	}{
		{"literal run past end", append(valid[:lit:lit], 0x1f, 1, 2)},
		{"truncated length extension", append(valid[:lit:lit], 0xe0)},
		{"truncated offset", append(valid[:lit:lit], 0x20)},
		{"reference before window", append(valid[:lit:lit], 0x20, 0xff)},
		{"literal past the page", append(valid[:len(valid):len(valid)], 0x00, 0x01)},
		{"match past the page", append(valid[:len(valid):len(valid)], 0x20, 0x00)},
		{"one byte short", c.Compress(nil, res[:n-1])},
		{"nonzero match source", c.Compress(nil, nonzero)},
	} {
		if checkApplyXOR(t, tc.name, page, tc.src, &s) {
			t.Fatalf("%s: ApplyXOR accepted", tc.name)
		}
	}

	rng := rand.New(rand.NewSource(43))
	accepted, refused := 0, 0
	for k, src := range goldenCorpus() {
		p := make([]byte, len(src))
		rng.Read(p)
		comp := c.Compress(nil, src)
		for m := 0; m < 20; m++ {
			mut := append([]byte(nil), comp...)
			if m > 0 && len(mut) > 0 {
				mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			}
			if checkApplyXOR(t, fmt.Sprintf("corpus %d mutation %d", k, m), p, mut, &s) {
				accepted++
			} else {
				refused++
			}
		}
	}
	if accepted == 0 || refused == 0 {
		t.Fatalf("corpus: %d payloads applied in place, %d refused; want both", accepted, refused)
	}
}
