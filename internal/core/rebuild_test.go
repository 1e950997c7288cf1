package core

import (
	"bytes"
	"math/rand"
	"testing"

	"almanac/internal/delta"
	"almanac/internal/flash"
	"almanac/internal/vclock"
)

// churnDevice drives a device through enough writes that GC, compression
// and retention are all active, then flushes the delta buffers (RAM-only
// state is legitimately lost in a crash; flushing first lets the test
// demand exact version-set equality).
func churnDevice(t *testing.T, d *TimeSSD, writes int) vclock.Time {
	t.Helper()
	rng := rand.New(rand.NewSource(55))
	logical := d.LogicalPages() / 2
	at := vclock.Time(0)
	for i := 0; i < writes; i++ {
		at = at.Add(vclock.Second)
		lpa := uint64(rng.Intn(logical))
		done, err := d.Write(lpa, versionPage(d, lpa, i), at)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		at = done
	}
	at, err := d.FlushDeltas(at)
	if err != nil {
		t.Fatal(err)
	}
	return at
}

func TestRebuildPreservesLiveState(t *testing.T) {
	d := newTiny(t, nil)
	at := churnDevice(t, d, d.cfg.FTL.Flash.TotalPages()*3)

	r, err := Rebuild(d.Arr, d.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("rebuilt device inconsistent: %v", err)
	}
	// Every live page reads identically.
	for lpa := uint64(0); lpa < uint64(d.LogicalPages()); lpa++ {
		want, _, err := d.Read(lpa, at)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := r.Read(lpa, at)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("lpa %d differs after rebuild", lpa)
		}
	}
}

func TestRebuildPreservesHistory(t *testing.T) {
	d := newTiny(t, nil)
	at := churnDevice(t, d, d.cfg.FTL.Flash.TotalPages()*2)

	r, err := Rebuild(d.Arr, d.cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every version retrievable before the crash is retrievable after
	// (the rebuilt window conservatively covers all surviving history).
	lost, checked := 0, 0
	for lpa := uint64(0); lpa < uint64(d.LogicalPages()); lpa++ {
		before, _, err := d.Versions(lpa, at)
		if err != nil {
			t.Fatal(err)
		}
		if len(before) == 0 {
			continue
		}
		after, _, err := r.Versions(lpa, at)
		if err != nil {
			t.Fatal(err)
		}
		byTS := map[vclock.Time][]byte{}
		for _, v := range after {
			byTS[v.TS] = v.Data
		}
		for _, v := range before {
			checked++
			got, ok := byTS[v.TS]
			if !ok {
				lost++
				continue
			}
			if !bytes.Equal(got, v.Data) {
				t.Fatalf("lpa %d version %v corrupted by rebuild", lpa, v.TS)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no versions to check")
	}
	if lost != 0 {
		t.Fatalf("rebuild lost %d of %d versions", lost, checked)
	}
}

func TestRebuildDeviceRemainsUsable(t *testing.T) {
	d := newTiny(t, nil)
	churnDevice(t, d, d.cfg.FTL.Flash.TotalPages()*2)

	r, err := Rebuild(d.Arr, d.cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Post-crash life: several device-capacities of writes must proceed
	// (GC, compression, window shedding all working on rebuilt state).
	rng := rand.New(rand.NewSource(56))
	logical := r.LogicalPages() / 2
	at := vclock.Time(0).Add(vclock.Hour)
	for i := 0; i < r.cfg.FTL.Flash.TotalPages()*3; i++ {
		at = at.Add(vclock.Second)
		lpa := uint64(rng.Intn(logical))
		done, err := r.Write(lpa, versionPage(r, lpa, i), at)
		if err != nil {
			t.Fatalf("post-rebuild write %d: %v", i, err)
		}
		at = done
	}
	if r.GC.Runs == 0 {
		t.Fatal("GC never ran after rebuild")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRebuildEmptyDevice(t *testing.T) {
	d := newTiny(t, nil)
	r, err := Rebuild(d.Arr, d.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if r.FreeBlocks() != d.cfg.FTL.Flash.TotalBlocks() {
		t.Fatalf("empty rebuild left %d free blocks", r.FreeBlocks())
	}
	data, _, err := r.Read(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0 {
		t.Fatal("empty device reads non-zero")
	}
}

func TestRebuildMidGC(t *testing.T) {
	// Crash with partially-filled active blocks: rebuild pads them closed
	// and the device stays coherent.
	d := newTiny(t, nil)
	at := vclock.Time(0)
	for i := 0; i < 37; i++ { // deliberately not a multiple of pages-per-block
		at = at.Add(vclock.Second)
		done, err := d.Write(uint64(i%5), versionPage(d, uint64(i%5), i), at)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	r, err := Rebuild(d.Arr, d.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for lpa := uint64(0); lpa < 5; lpa++ {
		want, _, _ := d.Read(lpa, at)
		got, _, err := r.Read(lpa, at)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("lpa %d wrong after mid-write rebuild: %v", lpa, err)
		}
	}
}

// TestRebuildRestoresChainSlots crashes a device whose delta chains mix all
// three link kinds — packed pages (slot-addressed), raw-retained pages (OOB
// back-pointer, no slot) and deltas still pending in RAM — and checks that
// the rebuilt device walks every chain to the same answers, with every
// packed chain head slot-addressed again so the walks stay O(1) per hop.
func TestRebuildRestoresChainSlots(t *testing.T) {
	d := newTiny(t, func(c *Config) {
		c.FTL.Flash.PageSize = 512
		c.MinRetention = vclock.Day // no window drop retires the history under test
	})
	rng := rand.New(rand.NewSource(77))
	logical := d.LogicalPages() / 2
	at := vclock.Time(0)
	for i := 0; i < d.cfg.FTL.Flash.TotalPages(); i++ {
		at = at.Add(vclock.Second)
		lpa := uint64(rng.Intn(logical))
		page := versionPage(d, lpa, i)
		if i%16 == 0 {
			rng.Read(page) // incompressible: retained raw, chained through OOB
		}
		done, err := d.Write(lpa, page, at)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		at = done
	}
	// GC flushes a buffer before it erases the buffered deltas' sources, so
	// only idle compression, which erases nothing, leaves deltas pending.
	d.Idle(at, at.Add(10*vclock.Second))
	at = at.Add(10 * vclock.Second)
	pending, packed, raw := 0, 0, 0
	d.forEachPending(func(uint64, pendingDelta) { pending++ })
	for _, ppa := range d.imt {
		if ppa == flash.NullPPA {
			continue
		}
		switch oob, _ := d.Arr.PeekOOB(ppa); oob.Kind {
		case flash.KindDelta:
			packed++
		case flash.KindDeltaRaw:
			raw++
		}
	}
	if pending == 0 || packed == 0 || raw == 0 {
		t.Fatalf("history lacks a link kind: %d pending, %d packed heads, %d raw heads", pending, packed, raw)
	}

	r, err := Rebuild(d.Arr, d.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for lpa := uint64(0); lpa < uint64(d.LogicalPages()); lpa++ {
		wantV, _, err := d.Versions(lpa, at)
		if err != nil {
			t.Fatal(err)
		}
		gotV, _, err := r.Versions(lpa, at)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotV) != len(wantV) {
			t.Fatalf("lpa %d: %d versions after rebuild, %d before", lpa, len(gotV), len(wantV))
		}
		for i := range wantV {
			if gotV[i].TS != wantV[i].TS || !bytes.Equal(gotV[i].Data, wantV[i].Data) {
				t.Fatalf("lpa %d version %d (ts %v) differs after rebuild", lpa, i, wantV[i].TS)
			}
		}
		wantT, _, _ := d.appendTimestamps(nil, lpa, at)
		gotT, _, err := r.appendTimestamps(nil, lpa, at)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotT) != len(wantT) {
			t.Fatalf("lpa %d: %d timestamps after rebuild, %d before", lpa, len(gotT), len(wantT))
		}
		for i := range wantT {
			if gotT[i] != wantT[i] {
				t.Fatalf("lpa %d timestamp %d: %v after rebuild, %v before", lpa, i, gotT[i], wantT[i])
			}
		}

		head := r.imt[lpa]
		if head == flash.NullPPA {
			continue
		}
		data, oob, err := r.Arr.PeekPage(head)
		if err != nil || oob.Kind != flash.KindDelta {
			continue
		}
		pg, err := delta.OpenPage(data)
		if err != nil {
			t.Fatal(err)
		}
		slot := int(r.imtSlot[lpa])
		if slot == 0 || slot > pg.Len() {
			t.Fatalf("lpa %d: packed chain head has slot %d of %d", lpa, slot, pg.Len())
		}
		if got, _ := pg.Key(slot - 1); got != lpa {
			t.Fatalf("lpa %d: head slot %d holds lpa %d", lpa, slot, got)
		}
	}
}
