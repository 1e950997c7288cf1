package core

import (
	"bytes"
	"errors"
	"testing"

	"almanac/internal/fault"
	"almanac/internal/flash"
	"almanac/internal/vclock"
)

func armFaults(t *testing.T, d *TimeSSD, p *fault.Plan) {
	t.Helper()
	inj, err := fault.NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	d.SetFaults(inj)
}

// rebuildImage round-trips the device through its image format and the
// firmware rebuild path — the full power-loss recovery sequence.
func rebuildImage(t *testing.T, d *TimeSSD) *TimeSSD {
	t.Helper()
	var img bytes.Buffer
	if err := d.Arr.WriteImage(&img); err != nil {
		t.Fatal(err)
	}
	arr, err := flash.ReadImage(&img)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Rebuild(arr, d.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("rebuilt device inconsistent: %v", err)
	}
	return r
}

// TestRebuildInstantRestartsWindow: the retention window of a rebuilt
// device restarts at the rebuild instant — the newest write timestamp on
// the medium — and the instant is journalled in OOB metadata so a second
// rebuild (with no intervening writes) recovers the same clock.
func TestRebuildInstantRestartsWindow(t *testing.T) {
	d := newTiny(t, nil)
	var last vclock.Time
	at := vclock.Time(0)
	for i := 0; i < 40; i++ {
		at = at.Add(vclock.Minute)
		last = at
		done, err := d.Write(uint64(i%8), versionPage(d, uint64(i%8), i), at)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}

	r := rebuildImage(t, d)
	if r.rebuiltAt != last {
		t.Fatalf("rebuild instant %v, newest write was at %v", r.rebuiltAt, last)
	}
	if ws := r.RetentionWindowStart(); ws != last {
		t.Fatalf("retention window starts at %v, want the rebuild instant %v", ws, last)
	}
	// The consequence documented on Rebuild: the window can only have
	// grown — it must not start later than the crash left it.
	if r.RetentionWindowStart() > at {
		t.Fatal("rebuild moved the window start past the crash time")
	}

	// The instant survives a second crash with no host writes in between,
	// through the OOB journal marker alone.
	r2 := rebuildImage(t, r)
	if r2.rebuiltAt != last {
		t.Fatalf("second rebuild lost the journalled instant: %v, want %v", r2.rebuiltAt, last)
	}
}

// TestProgramFailRelocates: a failed page program burns the page and the
// FTL retries on the next page; the host write still succeeds and the
// failure is accounted.
func TestProgramFailRelocates(t *testing.T) {
	d := newTiny(t, nil)
	armFaults(t, d, &fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Effect: fault.ProgramFail, Channel: fault.Any, Block: fault.Any, Page: fault.Any, Count: 3},
	}})
	at := vclock.Time(0)
	for i := 0; i < 10; i++ {
		at = at.Add(vclock.Second)
		done, err := d.Write(uint64(i), versionPage(d, uint64(i), i), at)
		if err != nil {
			t.Fatalf("write %d should have relocated past the program failure: %v", i, err)
		}
		at = done
	}
	if got := d.Base.ProgramFailures; got != 3 {
		t.Fatalf("ProgramFailures = %d, want 3", got)
	}
	if st := d.Arr.Stats(); st.ProgramFails != 3 {
		t.Fatalf("flash stats ProgramFails = %d, want 3", st.ProgramFails)
	}
	for i := 0; i < 10; i++ {
		data, _, err := d.Read(uint64(i), at)
		if err != nil || !bytes.Equal(data, versionPage(d, uint64(i), i)) {
			t.Fatalf("lpa %d unreadable after relocation: %v", i, err)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEraseFailGrowsBadBlock: a failed erase retires the block; the
// retirement is persisted in OOB and restored by Rebuild.
func TestEraseFailGrowsBadBlock(t *testing.T) {
	d := newTiny(t, nil)
	// Force churn so GC erases blocks; every erase fails until the pool of
	// rules runs out.
	armFaults(t, d, &fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Effect: fault.EraseFail, Channel: fault.Any, Block: fault.Any, Page: fault.Any, Count: 2},
	}})
	at := vclock.Time(0)
	writes := d.cfg.FTL.Flash.TotalPages() * 2
	for i := 0; i < writes; i++ {
		at = at.Add(vclock.Second)
		done, err := d.Write(uint64(i%(d.LogicalPages()/2)), versionPage(d, uint64(i), i), at)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		at = done
	}
	grown := d.Base.GrownBadBlocks
	if grown != 2 {
		t.Fatalf("GrownBadBlocks = %d, want 2", grown)
	}
	if st := d.Arr.Stats(); st.EraseFails != 2 {
		t.Fatalf("flash stats EraseFails = %d, want 2", st.EraseFails)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The retirement survives power loss: the rebuilt device re-retires
	// the same number of blocks and never reuses them.
	d.SetFaults(nil)
	r := rebuildImage(t, d)
	if r.Base.GrownBadBlocks != grown {
		t.Fatalf("rebuild recovered %d grown bad blocks, want %d", r.Base.GrownBadBlocks, grown)
	}
}

// TestUncorrectableReadIsTyped: reads past the ECC budget surface as
// fault.ErrUncorrectable through core, and flash.ErrReadFailed still
// matches (it aliases the sentinel).
func TestUncorrectableReadIsTyped(t *testing.T) {
	d := newTiny(t, nil)
	at, err := d.Write(3, versionPage(d, 3, 1), vclock.Time(vclock.Second))
	if err != nil {
		t.Fatal(err)
	}
	armFaults(t, d, &fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Effect: fault.BitFlip, Channel: fault.Any, Block: fault.Any, Page: fault.Any, Bits: 100, Count: 1},
	}})
	_, _, err = d.Read(3, at.Add(vclock.Second))
	if !errors.Is(err, fault.ErrUncorrectable) {
		t.Fatalf("want fault.ErrUncorrectable, got %v", err)
	}
	if !errors.Is(err, flash.ErrReadFailed) {
		t.Fatalf("legacy flash.ErrReadFailed no longer matches: %v", err)
	}
	// Count=1: the next read succeeds with intact data.
	data, _, err := d.Read(3, at.Add(2*vclock.Second))
	if err != nil || !bytes.Equal(data, versionPage(d, 3, 1)) {
		t.Fatalf("read after exhausted rule: %v", err)
	}
}

// TestCorrectedReadsAccounted: bit flips within the ECC budget succeed and
// are counted, and silent corruption really does bypass detection.
func TestCorrectedAndSilentReads(t *testing.T) {
	d := newTiny(t, nil)
	at, err := d.Write(3, versionPage(d, 3, 1), vclock.Time(vclock.Second))
	if err != nil {
		t.Fatal(err)
	}
	armFaults(t, d, &fault.Plan{Seed: 1, ECCBudget: 8, Rules: []fault.Rule{
		{Effect: fault.BitFlip, Channel: fault.Any, Block: fault.Any, Page: fault.Any, Bits: 4, Count: 1},
		{Effect: fault.BitFlip, Channel: fault.Any, Block: fault.Any, Page: fault.Any, Bits: 4, Silent: true, Count: 1},
	}})
	data, done, err := d.Read(3, at.Add(vclock.Second))
	if err != nil || !bytes.Equal(data, versionPage(d, 3, 1)) {
		t.Fatalf("corrected read must return clean data: %v", err)
	}
	if st := d.Arr.Stats(); st.ECCCorrected != 1 {
		t.Fatalf("ECCCorrected = %d, want 1", st.ECCCorrected)
	}
	data, _, err = d.Read(3, done.Add(vclock.Second))
	if err != nil {
		t.Fatalf("silent corruption must not error: %v", err)
	}
	if bytes.Equal(data, versionPage(d, 3, 1)) {
		t.Fatal("silent corruption returned clean data")
	}
	// The medium itself is untouched: silent corruption happens on the
	// returned copy, so the next read is clean again.
	data, _, err = d.Read(3, done.Add(2*vclock.Second))
	if err != nil || !bytes.Equal(data, versionPage(d, 3, 1)) {
		t.Fatalf("medium corrupted by a silent read: %v", err)
	}
}

// TestPowerCutRecovery: a power cut mid-write tears the page, kills the
// device, and the rebuilt device serves the pre-cut state; the torn write
// never happened.
func TestPowerCutRecovery(t *testing.T) {
	d := newTiny(t, nil)
	at, err := d.Write(5, versionPage(d, 5, 1), vclock.Time(vclock.Second))
	if err != nil {
		t.Fatal(err)
	}
	armFaults(t, d, &fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Effect: fault.PowerCut, Channel: fault.Any, Block: fault.Any, Page: fault.Any, At: at.Add(vclock.Minute)},
	}})
	if _, err := d.Write(5, versionPage(d, 5, 2), at.Add(vclock.Hour)); !errors.Is(err, fault.ErrPowerCut) {
		t.Fatalf("want fault.ErrPowerCut, got %v", err)
	}
	if !d.Arr.Dead() {
		t.Fatal("array survived a power cut")
	}
	if _, _, err := d.Read(5, at.Add(2*vclock.Hour)); !errors.Is(err, fault.ErrPowerCut) {
		t.Fatalf("dead array served a read: %v", err)
	}
	if st := d.Arr.Stats(); st.TornWrites != 1 {
		t.Fatalf("TornWrites = %d, want 1", st.TornWrites)
	}

	r := rebuildImage(t, d)
	data, _, err := r.Read(5, at.Add(3*vclock.Hour))
	if err != nil || !bytes.Equal(data, versionPage(d, 5, 1)) {
		t.Fatalf("pre-cut version lost: %v", err)
	}
	vers, _, err := r.Versions(5, at.Add(4*vclock.Hour))
	if err != nil || len(vers) != 1 {
		t.Fatalf("torn write resurrected: %d versions, %v", len(vers), err)
	}
}
