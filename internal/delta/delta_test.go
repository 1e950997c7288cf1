package delta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"almanac/internal/lzf"
	"almanac/internal/vclock"
)

const pageSize = 4096

// similarPages builds an (old, ref) pair where ref differs from old in
// roughly frac of its bytes — the paper's "content locality" assumption.
func similarPages(rng *rand.Rand, frac float64) (old, ref []byte) {
	old = make([]byte, pageSize)
	rng.Read(old)
	ref = append([]byte(nil), old...)
	n := int(frac * pageSize)
	for i := 0; i < n; i++ {
		ref[rng.Intn(pageSize)] = byte(rng.Intn(256))
	}
	return old, ref
}

func TestEncodeDecodeXOR(t *testing.T) {
	var c lzf.Compressor
	rng := rand.New(rand.NewSource(1))
	for _, frac := range []float64{0, 0.01, 0.05, 0.2, 0.5} {
		old, ref := similarPages(rng, frac)
		enc, payload := EncodeWith(&c, nil, old, ref)
		got, err := decodeOnto(enc, payload, ref, pageSize, new(Scratch))
		if err != nil {
			t.Fatalf("frac=%v: decode: %v", frac, err)
		}
		if !bytes.Equal(got, old) {
			t.Fatalf("frac=%v: round trip mismatch", frac)
		}
	}
}

func TestEncodeSimilarPagesCompressWell(t *testing.T) {
	var c lzf.Compressor
	rng := rand.New(rand.NewSource(2))
	old, ref := similarPages(rng, 0.05)
	enc, payload := EncodeWith(&c, nil, old, ref)
	if enc != EncXORLZF {
		t.Fatalf("similar pages chose encoding %v", enc)
	}
	if len(payload) > pageSize/2 {
		t.Fatalf("5%% diff compressed to %d bytes; expected well under half a page", len(payload))
	}
}

func TestEncodeIncompressibleFallsBackToRaw(t *testing.T) {
	var c lzf.Compressor
	rng := rand.New(rand.NewSource(3))
	old := make([]byte, pageSize)
	rng.Read(old)
	// No reference at all and random content: LZF will not pay.
	enc, payload := EncodeWith(&c, nil, old, nil)
	if enc != EncRaw {
		t.Fatalf("random content without reference chose %v, want EncRaw", enc)
	}
	got, err := decodeOnto(enc, payload, nil, pageSize, new(Scratch))
	if err != nil || !bytes.Equal(got, old) {
		t.Fatalf("raw round trip failed: %v", err)
	}
}

func TestEncodeNoReference(t *testing.T) {
	var c lzf.Compressor
	old := bytes.Repeat([]byte("log entry "), 410)[:pageSize]
	enc, payload := EncodeWith(&c, nil, old, nil)
	if enc != EncRawLZF {
		t.Fatalf("compressible content without reference chose %v", enc)
	}
	got, err := decodeOnto(enc, payload, nil, pageSize, new(Scratch))
	if err != nil || !bytes.Equal(got, old) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestDecodeWrongSizes(t *testing.T) {
	if _, err := decodeOnto(EncRaw, []byte{1, 2, 3}, nil, pageSize, new(Scratch)); err == nil {
		t.Fatal("short raw payload accepted")
	}
	// One literal byte: a residual one byte long, of either LZF encoding.
	for _, enc := range []Encoding{EncXORLZF, EncRawLZF} {
		if _, err := decodeOnto(enc, []byte{0x00, 0x41}, nil, pageSize, new(Scratch)); err == nil {
			t.Fatalf("enc %d: payload decoding to 1 byte of a %d-byte page accepted", enc, pageSize)
		}
	}
	if _, err := decodeOnto(Encoding(99), nil, nil, pageSize, new(Scratch)); err == nil {
		t.Fatal("unknown encoding accepted")
	}
}

func TestQuickXORRoundTrip(t *testing.T) {
	var c lzf.Compressor
	f := func(seed int64, changes uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		old, ref := similarPages(rng, float64(changes%1000)/1000)
		enc, payload := EncodeWith(&c, nil, old, ref)
		got, err := decodeOnto(enc, payload, ref, pageSize, new(Scratch))
		return err == nil && bytes.Equal(got, old)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func makeDelta(rng *rand.Rand, lpa uint64, ts vclock.Time, payloadLen int) *Delta {
	p := make([]byte, payloadLen)
	rng.Read(p)
	return &Delta{
		LPA:      lpa,
		BackPtr:  rng.Uint64(),
		BackSlot: uint16(lpa%7) + 1,
		TS:       ts,
		RefTS:    ts + 100,
		Enc:      EncXORLZF,
		Payload:  p,
	}
}

// unpackPage materialises every delta of a page, payloads copied out — the
// whole-page parse the tests compare PackPage against.
func unpackPage(buf []byte) ([]*Delta, error) {
	p, err := OpenPage(buf)
	if err != nil {
		return nil, err
	}
	out := make([]*Delta, p.Len())
	for i := range out {
		d := new(Delta)
		if err := p.Delta(i, d); err != nil {
			return nil, err
		}
		d.Payload = append([]byte(nil), d.Payload...)
		out[i] = d
	}
	return out, nil
}

func TestPackUnpackPage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var ds []*Delta
	for i := 0; i < 10; i++ {
		ds = append(ds, makeDelta(rng, uint64(i), vclock.Time(i*1000), 50+rng.Intn(200)))
	}
	page, n, err := pack(ds, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("packed %d of 10", n)
	}
	if len(page) != pageSize {
		t.Fatalf("page is %d bytes", len(page))
	}
	got, err := unpackPage(page)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("unpacked %d deltas", len(got))
	}
	for i := range ds {
		a, b := ds[i], got[i]
		if a.LPA != b.LPA || a.BackPtr != b.BackPtr || a.BackSlot != b.BackSlot || a.TS != b.TS ||
			a.RefTS != b.RefTS || a.Enc != b.Enc || !bytes.Equal(a.Payload, b.Payload) {
			t.Fatalf("delta %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestPackPagePartialFit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var ds []*Delta
	for i := 0; i < 5; i++ {
		ds = append(ds, makeDelta(rng, uint64(i), vclock.Time(i), 1500))
	}
	_, n, err := pack(ds, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 || n >= 5 {
		t.Fatalf("expected a partial fit, packed %d", n)
	}
}

func TestPackPageOversize(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := makeDelta(rng, 1, 1, pageSize) // payload alone fills the page
	if _, _, err := pack([]*Delta{d}, pageSize); err == nil {
		t.Fatal("oversize delta packed without error")
	}
}

func TestPackPageEmpty(t *testing.T) {
	if _, _, err := pack(nil, pageSize); err == nil {
		t.Fatal("empty pack accepted")
	}
}

func TestUnpackCorrupt(t *testing.T) {
	if _, err := unpackPage([]byte{1}); err == nil {
		t.Fatal("tiny page accepted")
	}
	// Count claims more entries than fit.
	bad := make([]byte, 64)
	bad[0] = 0xff
	bad[1] = 0xff
	if _, err := unpackPage(bad); err == nil {
		t.Fatal("overflowing count accepted")
	}
}

// TestPreSlotPageReadsAsSlotUnknown hand-builds an entry the way pages were
// written before back-slots existed (a u32 payload length where the u16
// length and u16 slot now sit): it must parse to the same delta with the
// slot unknown, and the entry must still be 41 bytes — packing decisions,
// and so every virtual metric, depend on that size.
func TestPreSlotPageReadsAsSlotUnknown(t *testing.T) {
	if entrySize != 41 {
		t.Fatalf("entry is %d bytes, want 41", entrySize)
	}
	payload := []byte("old-image-payload")
	buf := make([]byte, 128)
	binary.LittleEndian.PutUint16(buf, 1)
	e := buf[headerSize:]
	binary.LittleEndian.PutUint32(e, headerSize+entrySize)
	binary.LittleEndian.PutUint32(e[4:], uint32(len(payload)))
	e[8] = byte(EncRawLZF)
	binary.LittleEndian.PutUint64(e[9:], 7)
	binary.LittleEndian.PutUint64(e[17:], 4242)
	binary.LittleEndian.PutUint64(e[25:], 900)
	binary.LittleEndian.PutUint64(e[33:], 1000)
	copy(buf[headerSize+entrySize:], payload)

	p, err := OpenPage(buf)
	if err != nil {
		t.Fatal(err)
	}
	var d Delta
	if err := p.Delta(0, &d); err != nil {
		t.Fatal(err)
	}
	if d.LPA != 7 || d.BackPtr != 4242 || d.BackSlot != 0 || d.TS != 900 || d.RefTS != 1000 ||
		d.Enc != EncRawLZF || !bytes.Equal(d.Payload, payload) {
		t.Fatalf("pre-slot entry parsed as %+v", d)
	}
	if back, slot := p.Link(0); back != 4242 || slot != 0 {
		t.Fatalf("Link = (%d, %d), want (4242, 0)", back, slot)
	}
}

func TestPageHop(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var ds []*Delta
	for i := 0; i < 5; i++ {
		ds = append(ds, makeDelta(rng, uint64(10+i), vclock.Time(100*(i+1)), 30))
	}
	buf, _, err := pack(ds, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	p, err := OpenPage(buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		slot   uint16
		lpa    uint64
		before vclock.Time
		want   int
	}{
		{"right slot", 3, 12, 1000, 2},
		{"slot unknown searches", 0, 12, 1000, 2},
		{"another lpa's slot searches", 1, 12, 1000, 2},
		{"slot past the header searches", 200, 12, 1000, 2},
		{"entry not older than the bound", 3, 12, 300, -1},
		{"lpa absent", 3, 99, 1000, -1},
	} {
		if got := p.Hop(tc.slot, tc.lpa, tc.before); got != tc.want {
			t.Errorf("%s: Hop(%d, %d, %d) = %d, want %d", tc.name, tc.slot, tc.lpa, tc.before, got, tc.want)
		}
	}
}

// TestEntryPayloadBounds moves an entry's payload outside the page's payload
// area — past the end, and back into the header — and expects both refused.
func TestEntryPayloadBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := []*Delta{makeDelta(rng, 1, 1, 30), makeDelta(rng, 2, 2, 30)}
	for name, off := range map[string]uint32{"past the end": pageSize - 10, "inside the header": headerSize + entrySize} {
		buf, _, err := pack(ds, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(buf[headerSize+entrySize:], off)
		p, err := OpenPage(buf)
		if err != nil {
			t.Fatal(err)
		}
		var d Delta
		if err := p.Delta(0, &d); err != nil {
			t.Fatalf("%s: intact entry 0 refused: %v", name, err)
		}
		if err := p.Delta(1, &d); !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("%s: entry 1 gave %v, want ErrCorruptPage", name, err)
		}
		if _, err := unpackPage(buf); !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("%s: unpackPage gave %v, want ErrCorruptPage", name, err)
		}
	}
}

func TestPackPageBeyondEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	if _, _, err := pack([]*Delta{makeDelta(rng, 1, 1, 30)}, MaxPageSize+1); err == nil {
		t.Fatal("page size past the 16-bit entry fields accepted")
	}
}

func TestBufferLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuffer(pageSize)
	if !b.Empty() {
		t.Fatal("fresh buffer not empty")
	}
	if page, _, err := b.Flush(); err != nil || page != nil {
		t.Fatal("flush of empty buffer should be a no-op")
	}
	added := 0
	for {
		d := makeDelta(rng, uint64(added), vclock.Time(added), 300)
		if !b.Fits(d) {
			if b.Add(d) {
				t.Fatal("Add succeeded after Fits said no")
			}
			break
		}
		if !b.Add(d) {
			t.Fatal("Add failed after Fits said yes")
		}
		added++
	}
	if added == 0 {
		t.Fatal("nothing fit in an empty buffer")
	}
	page, ds, err := b.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != added {
		t.Fatalf("flushed %d deltas, added %d", len(ds), added)
	}
	got, err := unpackPage(page)
	if err != nil || len(got) != added {
		t.Fatalf("unpack after flush: %v, %d deltas", err, len(got))
	}
	if !b.Empty() {
		t.Fatal("buffer not reset after flush")
	}
	// The next flush reuses the page with less payload on it: it must be
	// the image a fresh page packs, with nothing of the first flush left.
	small := []*Delta{makeDelta(rng, 1, 1, 30), makeDelta(rng, 2, 2, 30)}
	for _, d := range small {
		if !b.Add(d) {
			t.Fatal("Add failed on an empty buffer")
		}
	}
	again, _, err := b.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pack(small, pageSize)
	if err != nil || !bytes.Equal(again, want) {
		t.Fatalf("second flush differs from a fresh pack (%v)", err)
	}
}

// pack packs ds into a fresh page of size bytes.
func pack(ds []*Delta, size int) ([]byte, int, error) {
	page := make([]byte, size)
	n, err := PackPage(page, ds)
	return page, n, err
}

// TestPageCapacity: a page holds its header, one entry per delta and the
// payloads, to the byte.
func TestPageCapacity(t *testing.T) {
	room := pageSize - headerSize - 2*entrySize
	a := &Delta{Payload: make([]byte, room/2)}
	b := &Delta{Payload: make([]byte, room-room/2)}
	page := make([]byte, pageSize)
	if n, err := PackPage(page, []*Delta{a, b}); err != nil || n != 2 {
		t.Fatalf("two deltas filling the page: packed %d, %v", n, err)
	}
	b.Payload = append(b.Payload, 0)
	if n, err := PackPage(page, []*Delta{a, b}); err != nil || n != 1 {
		t.Fatalf("one byte past the page: packed %d, %v; want 1", n, err)
	}
}
