package delta

import (
	"bytes"
	"math/rand"
	"testing"

	"almanac/internal/vclock"
)

// FuzzDeltaEncodeDecode checks that Encoder.Encode∘DecodeOnto reconstructs the exact
// obsolete version for every (old, ref) pair, with and without a
// reference. Deltas are how retained history survives GC (§3.6); a lossy
// round trip here silently corrupts time travel.
func FuzzDeltaEncodeDecode(f *testing.F) {
	f.Add([]byte("old-page-content"), []byte("ref-page-content"), true)
	f.Add(bytes.Repeat([]byte{0}, 512), bytes.Repeat([]byte{0}, 512), true)
	f.Add(bytes.Repeat([]byte("ab"), 2048), bytes.Repeat([]byte("ac"), 2048), true)
	f.Add([]byte{}, []byte{}, true)
	f.Add([]byte("self-compressed, no reference"), []byte{}, false)

	var e Encoder
	var s Scratch
	f.Fuzz(func(t *testing.T, old, ref []byte, useRef bool) {
		if len(old) > 1<<16 {
			t.Skip()
		}
		if useRef {
			// Encode requires ref and old to be the same page size.
			if len(ref) < len(old) {
				t.Skip()
			}
			ref = ref[:len(old)]
		} else {
			ref = nil
		}
		enc, payload := e.Encode(nil, old, ref)
		got, err := decodeOnto(enc, payload, ref, len(old), &s)
		if err != nil {
			t.Fatalf("DecodeOnto(enc=%d) of own payload failed: %v", enc, err)
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

// FuzzDecodeOntoMatchesTwoPass checks that DecodeOnto accepts and rejects
// exactly what the frozen two-pass decoder does, with the same error text,
// and reconstructs the same bytes, for any encoding, payload and
// reference. A rejected XOR payload must leave the reference in the page
// as it was. The reference's length is the page size: DecodeOnto's page is
// the reference. One Scratch serves every input, as one serves a device.
func FuzzDecodeOntoMatchesTwoPass(f *testing.F) {
	var e Encoder
	add := func(old, ref []byte) []byte {
		enc, payload := e.Encode(nil, old, ref)
		f.Add(uint8(enc), payload, ref)
		return payload
	}
	for seed := int64(1); seed <= 3; seed++ {
		old, ref := lineagePair(seed, 4096)
		payload := add(old, ref)
		// Corrupt after the first literal run: a back-reference before the
		// window, where the in-place apply has a literal ready to write.
		if lit := int(payload[0]) + 2; payload[0] < 0x20 && lit < len(payload) {
			f.Add(uint8(EncXORLZF), append(payload[:lit:lit], 0x20, 0xff), ref)
		}
		f.Add(uint8(EncXORLZF), payload[:len(payload)-1], ref)
	}
	// A residual with a repeated nonzero run: a match copies nonzero bytes.
	old, ref := lineagePair(4, 4096)
	for i := 1000; i < 1200; i++ {
		old[i] = ref[i] ^ byte(1+i%3)
	}
	add(old, ref)
	add(benchPage(5, 512), nil)
	noise := make([]byte, 512)
	rand.New(rand.NewSource(6)).Read(noise)
	add(noise, nil)
	f.Add(uint8(99), []byte{0}, []byte{1})

	var s Scratch
	f.Fuzz(func(t *testing.T, enc uint8, payload, ref []byte) {
		if len(ref) > MaxPageSize {
			t.Skip()
		}
		want, wantErr := decodeRef(nil, Encoding(enc), payload, ref, len(ref))
		page := append([]byte(nil), ref...)
		err := DecodeOnto(page, Encoding(enc), payload, &s)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("enc %d: DecodeOnto error %v, two-pass decode %v", enc, err, wantErr)
		}
		switch {
		case err == nil && !bytes.Equal(page, want):
			t.Fatalf("enc %d: DecodeOnto and the two-pass decode reconstruct different pages", enc)
		case err != nil && Encoding(enc) == EncXORLZF && !bytes.Equal(page, ref):
			t.Fatalf("DecodeOnto rejected an XOR payload (%v) but changed the reference", err)
		}
	})
}
