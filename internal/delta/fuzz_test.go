package delta

import (
	"bytes"
	"math/rand"
	"testing"

	"almanac/internal/lzf"
	"almanac/internal/vclock"
)

// FuzzDeltaEncodeDecode checks that EncodeWith∘Decode reconstructs the exact
// obsolete version for every (old, ref) pair, with and without a
// reference. Deltas are how retained history survives GC (§3.6); a lossy
// round trip here silently corrupts time travel.
func FuzzDeltaEncodeDecode(f *testing.F) {
	f.Add([]byte("old-page-content"), []byte("ref-page-content"), true)
	f.Add(bytes.Repeat([]byte{0}, 512), bytes.Repeat([]byte{0}, 512), true)
	f.Add(bytes.Repeat([]byte("ab"), 2048), bytes.Repeat([]byte("ac"), 2048), true)
	f.Add([]byte{}, []byte{}, true)
	f.Add([]byte("self-compressed, no reference"), []byte{}, false)

	var c lzf.Compressor
	f.Fuzz(func(t *testing.T, old, ref []byte, useRef bool) {
		if len(old) > 1<<16 {
			t.Skip()
		}
		if useRef {
			// EncodeWith requires ref and old to be the same page size.
			if len(ref) < len(old) {
				t.Skip()
			}
			ref = ref[:len(old)]
		} else {
			ref = nil
		}
		enc, payload := EncodeWith(&c, nil, old, ref)
		got, err := Decode(enc, payload, ref, len(old))
		if err != nil {
			t.Fatalf("Decode(enc=%d) of own payload failed: %v", enc, err)
		}
		if !bytes.Equal(got, old) {
			t.Fatalf("round trip mismatch for enc=%d: %d bytes in, %d bytes out", enc, len(old), len(got))
		}
	})
}

// FuzzChainHop drives Page.Hop with arbitrary page bytes, slot, LPA and
// bound. A chain hop reads bytes a hostile image or a stale pointer chose,
// so it must never panic, and the slot must stay a hint: Hop either returns
// the slot's entry because that entry is lpa's and older than the bound, or
// exactly what the header search returns. On a page that keeps the writer's
// invariant (at most one entry per LPA) the two are the same entry.
func FuzzChainHop(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	var ds []*Delta
	for i := 0; i < 6; i++ {
		ds = append(ds, makeDelta(rng, uint64(i), vclock.Time(1000+i), 20))
	}
	page, _, err := pack(ds, 512)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(page, uint16(3), uint64(2), int64(5000))  // right slot
	f.Add(page, uint16(1), uint64(2), int64(5000))  // another LPA's slot
	f.Add(page, uint16(0), uint64(2), int64(5000))  // slot unknown
	f.Add(page, uint16(99), uint64(2), int64(5000)) // slot past the header
	f.Add(page, uint16(3), uint64(2), int64(1002))  // entry not older than the bound
	f.Add([]byte{0xff, 0xff, 1, 2, 3}, uint16(1), uint64(0), int64(1))
	f.Add([]byte{}, uint16(1), uint64(0), int64(1))

	f.Fuzz(func(t *testing.T, buf []byte, slot uint16, lpa uint64, bound int64) {
		before := vclock.Time(bound)
		p, err := OpenPage(buf)
		if err != nil {
			return
		}
		got, want := p.Hop(slot, lpa, before), p.Find(lpa, before)
		verifies := false
		if i := int(slot) - 1; i >= 0 && i < p.Len() {
			l, ts := p.Key(i)
			verifies = l == lpa && ts < before
		}
		switch {
		case !verifies:
			if got != want {
				t.Fatalf("slot %d does not verify: Hop = %d, Find = %d", slot, got, want)
			}
		case got != int(slot)-1:
			t.Fatalf("slot %d verifies but Hop = %d", slot, got)
		}
		entries := 0
		for i := 0; i < p.Len(); i++ {
			if l, _ := p.Key(i); l == lpa {
				entries++
			}
		}
		if entries <= 1 && got != want {
			t.Fatalf("one entry for lpa %d: Hop(slot %d) = %d, Find = %d", lpa, slot, got, want)
		}
		if got >= 0 {
			var d Delta
			if err := p.Delta(got, &d); err == nil && (d.LPA != lpa || d.TS >= before) {
				t.Fatalf("Hop returned entry %d: lpa %d ts %d, want lpa %d before %d", got, d.LPA, d.TS, lpa, before)
			}
			p.Link(got)
		}
	})
}
