package core

import (
	"errors"
	"testing"

	"almanac/internal/fault"
	"almanac/internal/flash"
	"almanac/internal/vclock"
)

// failReads arms each page in ppas to fail its next n reads uncorrectably
// (n = 0: every read).
func failReads(t *testing.T, d *TimeSSD, n int, ppas ...flash.PPA) {
	t.Helper()
	p := &fault.Plan{Seed: 1}
	for _, ppa := range ppas {
		p.Rules = append(p.Rules, fault.Rule{Effect: fault.Uncorrectable, Channel: fault.Any,
			Block: d.Arr.BlockOf(ppa), Page: d.Arr.PageOf(ppa), Count: n})
	}
	armFaults(t, d, p)
}

// TestReadFailureOnLiveHead: an uncorrectable error on the current version
// surfaces to the host as an error; the device stays consistent and other
// pages remain readable.
func TestReadFailureOnLiveHead(t *testing.T) {
	d := newTiny(t, nil)
	at, err := d.Write(1, versionPage(d, 1, 0), vclock.Time(vclock.Second))
	if err != nil {
		t.Fatal(err)
	}
	at, err = d.Write(2, versionPage(d, 2, 0), at.Add(vclock.Second))
	if err != nil {
		t.Fatal(err)
	}
	failReads(t, d, 1, d.AMT[1])
	if _, _, err := d.Read(1, at); !errors.Is(err, flash.ErrReadFailed) {
		t.Fatalf("expected injected failure, got %v", err)
	}
	// One-shot: the next read succeeds; neighbours unaffected.
	if _, _, err := d.Read(1, at); err != nil {
		t.Fatalf("read after transient failure: %v", err)
	}
	if _, _, err := d.Read(2, at); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReadFailureMidChain: a dead retained version truncates the history
// walk cleanly instead of erroring the whole query.
func TestReadFailureMidChain(t *testing.T) {
	d := newTiny(t, nil)
	at := vclock.Time(0)
	var heads []flash.PPA
	for i := 0; i < 4; i++ {
		at = at.Add(vclock.Second)
		done, err := d.Write(7, versionPage(d, 7, i), at)
		if err != nil {
			t.Fatal(err)
		}
		heads = append(heads, d.AMT[7])
		at = done
	}
	// Permanently kill version index 1 (the second oldest).
	failReads(t, d, 0, heads[1])
	vers, _, err := d.Versions(7, at)
	if err != nil {
		t.Fatal(err)
	}
	// Walk reaches versions 3 and 2, then stops at the dead page.
	if len(vers) != 2 {
		t.Fatalf("got %d versions, want 2 (walk truncated at the failure)", len(vers))
	}
	if !vers[0].Live || vers[1].Live {
		t.Fatal("wrong liveness in truncated walk")
	}
}

// TestReadFailureDuringGC: GC must survive an unrecoverable retained page
// (history lost, device alive) and an unrecoverable valid page (data lost,
// device alive).
func TestReadFailureDuringGC(t *testing.T) {
	d := newTiny(t, nil)
	at := vclock.Time(0)
	// Two versions so GC has a retained page; plus filler to seal blocks.
	var oldHead flash.PPA
	for i := 0; i < 2; i++ {
		at = at.Add(vclock.Second)
		done, err := d.Write(3, versionPage(d, 3, i), at)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			oldHead = d.AMT[3]
		}
		at = done
	}
	for f := 0; f < 4*d.cfg.FTL.Flash.PagesPerBlock; f++ {
		at = at.Add(vclock.Second)
		done, err := d.Write(uint64(50+f%30), versionPage(d, uint64(50+f%30), f), at)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	// Kill the retained version and the live head of another page, then
	// force reclamation of every sealed block.
	failReads(t, d, 0, oldHead, d.AMT[50])
	for i := 0; i < d.cfg.FTL.Flash.TotalBlocks(); i++ {
		victim := d.bestVictim()
		if victim < 0 {
			break
		}
		var err error
		at, err = d.reclaimDataBlock(victim, at)
		if err != nil {
			t.Fatalf("GC wedged on injected failure: %v", err)
		}
	}
	if d.ReadFailures == 0 {
		t.Fatal("no read failures were recorded")
	}
	// The device keeps serving.
	if _, err := d.Write(9, versionPage(d, 9, 0), at.Add(vclock.Second)); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
