package flash

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"almanac/internal/vclock"
)

// populate programs a random mixture of pages and erases across the array.
func populate(t testing.TB, a *Array) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var at vclock.Time
	for blk := 0; blk < a.Config().TotalBlocks(); blk++ {
		n := rng.Intn(a.Config().PagesPerBlock + 1)
		for p := 0; p < n; p++ {
			data := make([]byte, rng.Intn(a.Config().PageSize+1))
			rng.Read(data)
			oob := OOB{
				LPA:     rng.Uint64() % 1000,
				BackPtr: PPA(rng.Uint64() % 128),
				TS:      vclock.Time(rng.Int63()),
				Kind:    []PageKind{KindData, KindDelta, KindDeltaRaw}[rng.Intn(3)],
			}
			var err error
			_, at, err = a.Program(blk, data, oob, at)
			if err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(4) == 0 {
			var err error
			at, err = a.Erase(blk, at)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestImageRoundTrip(t *testing.T) {
	a := mustNew(t, tinyConfig())
	populate(t, a)

	var buf bytes.Buffer
	if err := a.WriteImage(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Config() != a.Config() {
		t.Fatalf("geometry changed: %+v vs %+v", b.Config(), a.Config())
	}
	if b.Stats() != a.Stats() {
		t.Fatalf("stats changed: %+v vs %+v", b.Stats(), a.Stats())
	}
	for blk := 0; blk < a.Config().TotalBlocks(); blk++ {
		if a.EraseCount(blk) != b.EraseCount(blk) {
			t.Fatalf("block %d erase count differs", blk)
		}
		if a.WritePtr(blk) != b.WritePtr(blk) {
			t.Fatalf("block %d write pointer differs", blk)
		}
		for off := 0; off < a.WritePtr(blk); off++ {
			ppa := a.AddrOf(blk, off)
			da, oa, err := a.PeekPage(ppa)
			if err != nil {
				t.Fatal(err)
			}
			db, ob, err := b.PeekPage(ppa)
			if err != nil {
				t.Fatal(err)
			}
			if oa != ob || !bytes.Equal(da, db) {
				t.Fatalf("ppa %d differs after round trip", ppa)
			}
		}
	}
}

func TestImageRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOTMAGIC"),
		[]byte("ALMIMG01"), // truncated right after magic
		// 2^30 one-byte pages: the data fits the byte cap, but the 36 GiB of
		// page metadata must be refused before anything is allocated.
		hostileHeader(),
	}
	for i, c := range cases {
		if _, err := ReadImage(bytes.NewReader(c)); !errors.Is(err, ErrBadImage) {
			t.Errorf("case %d: got %v", i, err)
		}
	}
	// Corrupt a valid image's tail: must error, not panic.
	a := mustNew(t, tinyConfig())
	populate(t, a)
	var buf bytes.Buffer
	if err := a.WriteImage(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	if _, err := ReadImage(bytes.NewReader(img[:len(img)*2/3])); err == nil {
		t.Error("truncated image accepted")
	}
}

// hostileHeader is the magic, the geometry {4, 16, 16, 1024, 1024, 1} and
// three latencies: every field and the byte count pass their caps.
func hostileHeader() []byte {
	b := []byte(imageMagic)
	for _, g := range []uint32{4, 16, 16, 1024, 1024, 1} {
		b = binary.LittleEndian.AppendUint32(b, g)
	}
	c := DefaultConfig()
	for _, d := range []vclock.Duration{c.ReadLatency, c.ProgLatency, c.EraseLatency} {
		b = binary.LittleEndian.AppendUint64(b, uint64(d))
	}
	return b
}

func TestImageFuzzTruncations(t *testing.T) {
	a := mustNew(t, tinyConfig())
	populate(t, a)
	var buf bytes.Buffer
	if err := a.WriteImage(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		n := rng.Intn(len(img))
		// Truncations must fail cleanly (the full image parses, so n==len
		// is excluded).
		if _, err := ReadImage(bytes.NewReader(img[:n])); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
	// Random single-byte corruptions must never panic (errors allowed, and
	// some corruptions — e.g. in page data — are legitimately undetectable).
	for i := 0; i < 200; i++ {
		mut := append([]byte(nil), img...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		_, _ = ReadImage(bytes.NewReader(mut))
	}
}

// FuzzReadImage feeds arbitrary bytes to ReadImage, which almanacd -image,
// imginspect and crashsweep hand whole files to. It must never panic, must
// refuse with ErrBadImage, and must accept only what WriteImage writes back
// byte for byte (ReadImage stops after the last block, so the input may run
// on past it).
func FuzzReadImage(f *testing.F) {
	a := mustNew(f, tinyConfig())
	populate(f, a)
	var img bytes.Buffer
	if err := a.WriteImage(&img); err != nil {
		f.Fatal(err)
	}
	f.Add(img.Bytes())
	f.Add(hostileHeader())
	f.Fuzz(func(t *testing.T, in []byte) {
		if !cheapToFuzz(in) {
			t.Skip()
		}
		a, err := ReadImage(bytes.NewReader(in))
		if err != nil {
			if !errors.Is(err, ErrBadImage) {
				t.Fatalf("refused without ErrBadImage: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := a.WriteImage(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(in, out.Bytes()) {
			t.Fatalf("accepted image writes back differently (%d bytes in, %d out)", len(in), out.Len())
		}
	})
}

// cheapToFuzz reports whether in's header claims at most 2^16 pages or more
// than ReadImage admits. In between, every exec would allocate the metadata
// of a large device for no parser path a small one does not take.
func cheapToFuzz(in []byte) bool {
	geo := in[min(len(in), len(imageMagic)):]
	pages := uint64(1)
	for i := 0; i+4 <= len(geo) && i < 20 && pages <= maxImagePages; i += 4 {
		pages *= uint64(binary.LittleEndian.Uint32(geo[i:]))
	}
	return pages <= 1<<16 || pages > maxImagePages
}
