package core

import (
	"errors"
	"fmt"

	"almanac/internal/bloom"
	"almanac/internal/delta"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/vclock"
)

// Rebuild reconstructs a TimeSSD's entire in-core state from a flash array
// alone — the firmware's crash-recovery path. Everything the device needs
// is recoverable from what it stored on flash:
//
//   - the AMT comes from each LPA's newest data version (OOB reverse
//     mappings, write timestamps breaking ties);
//   - older data versions are re-registered as retained: their PPAs enter
//     a fresh Bloom-filter chain, so the retention window restarts at the
//     rebuild instant but no surviving history is lost — except versions
//     delta storage already holds (compressed, block not yet erased), which
//     get their PRT mark back so walks and GC treat the delta as the copy;
//   - the IMT comes from scanning delta pages for each LPA's newest delta
//     (and its slot in a packed page, from the header index the scan is at);
//   - partially-written blocks are padded closed (as firmware does after
//     power loss) and delta blocks join one legacy cohort that retires
//     with the first window segment group;
//   - grown bad blocks (every page KindBad — the on-medium retirement
//     record an erase failure leaves) are re-retired, and stray KindBad
//     pages (burned programs, power-cut torn writes) count as dead filler.
//
// Retention-clock semantics: the rebuild instant is the newest write
// timestamp found anywhere on the medium. The fresh Bloom-filter chain is
// created at that instant and every surviving invalidation is re-registered
// there, because the true invalidation times are RAM state the crash lost.
// The consequence — deliberate, and what crashsweep's equivalence check
// assumes — is that the retention window RESTARTS at the rebuild instant:
// no surviving version can expire before rebuiltAt + MinRetention, so a
// crash can only ever lengthen retention, never shorten it. The instant is
// recorded in OOB-visible metadata (a KindTranslation marker page stamped
// with rebuiltAt) so it survives further crashes even if the host never
// writes again.
//
// Deliberate losses, matching real FTL semantics: RAM-only delta buffers
// (their source pages are still on flash and simply count as retained
// again — GC flushes buffers before erasing their sources, so a buffered
// delta never outlives its source) and trim records (an LPA whose newest
// version survives is treated as live — crash-lost trims are standard for
// SSDs without a persistent trim journal).
func Rebuild(arr *flash.Array, cfg Config) (*TimeSSD, error) {
	b, err := ftl.NewBaseOn(arr, cfg.FTL)
	if err != nil {
		return nil, err
	}
	if cfg.CohortSegments < 1 {
		cfg.CohortSegments = 1
	}
	t := &TimeSSD{
		Base: b,
		cfg:  cfg,
		zero: make([]byte, cfg.FTL.Flash.PageSize),
		prt:  make([]bool, cfg.FTL.Flash.TotalPages()),
		// The medium may hold payloads sealed under another retention key
		// (or none), which fail to decode: VersionAt must try each decode
		// where the walk reaches it, as Versions does.
		eagerVersionAt: true,
	}
	t.initTables()
	if err := t.initCipher(); err != nil {
		return nil, err
	}
	t.attachObs()

	fc := cfg.FTL.Flash
	ps := fc.PagesPerBlock

	// Pass 0: full OOB scan of every programmed page. Newest write
	// timestamp wins the AMT; every older data version is a retained
	// invalid page. Delta pages rebuild the IMT (newest delta per LPA).
	// The scan also finds the rebuild instant (the newest timestamp
	// anywhere on the medium) and the grown bad blocks (erase failures pin
	// a block full of KindBad pages — the on-medium retirement record).
	type head struct {
		ppa  flash.PPA
		ts   vclock.Time
		slot uint16 // delta heads: the entry's slot in a packed page, +1
	}
	type version struct {
		lpa uint64
		ts  vclock.Time
	}
	liveHead := map[uint64]head{}
	imtHead := map[uint64]head{}
	inDelta := map[version]bool{} // versions delta storage holds
	blockKind := make([]flash.PageKind, fc.TotalBlocks())
	blockBad := make([]bool, fc.TotalBlocks()) // full block of KindBad pages
	var rebuiltAt vclock.Time                  // newest write timestamp on the medium
	var adopted []ftl.AdoptedBlock

	for blk := 0; blk < fc.TotalBlocks(); blk++ {
		wp := arr.WritePtr(blk)
		if wp == 0 {
			continue
		}
		kind := flash.KindTranslation // downgraded below if real content found
		badPages := 0
		for off := 0; off < wp; off++ {
			ppa := arr.AddrOf(blk, off)
			data, oob, err := arr.PeekPage(ppa)
			if err != nil {
				return nil, fmt.Errorf("rebuild: scan ppa %d: %w", ppa, err)
			}
			if oob.TS > rebuiltAt {
				rebuiltAt = oob.TS
			}
			switch oob.Kind {
			case flash.KindData:
				kind = flash.KindData
				if h, ok := liveHead[oob.LPA]; !ok || oob.TS > h.ts {
					liveHead[oob.LPA] = head{ppa: ppa, ts: oob.TS}
				}
			case flash.KindDelta:
				kind = flash.KindDelta
				pg, err := delta.OpenPage(data)
				if err != nil {
					continue // torn delta page: its versions are lost
				}
				for i := 0; i < pg.Len(); i++ {
					lpa, ts := pg.Key(i)
					if ts > rebuiltAt {
						rebuiltAt = ts
					}
					inDelta[version{lpa, ts}] = true
					if h, ok := imtHead[lpa]; !ok || ts > h.ts {
						imtHead[lpa] = head{ppa, ts, uint16(i + 1)}
					}
				}
			case flash.KindDeltaRaw:
				kind = flash.KindDelta
				inDelta[version{oob.LPA, oob.TS}] = true
				if h, ok := imtHead[oob.LPA]; !ok || oob.TS > h.ts {
					imtHead[oob.LPA] = head{ppa: ppa, ts: oob.TS}
				}
			case flash.KindBad:
				badPages++ // burned/torn page: dead filler
			}
		}
		blockKind[blk] = kind
		// Only a full block of KindBad pages is a retirement record; a
		// partial block whose every programmed page is bad (e.g. a torn
		// first write) is just a crashed block that pads closed below.
		blockBad[blk] = wp == ps && badPages == ps
	}
	t.rebuiltAt = rebuiltAt
	t.chain = bloom.NewChain(cfg.BFCapacity, cfg.BFFalsePositive, cfg.BFGroup, rebuiltAt)
	t.chain.EnableMemo(uint64(fc.TotalPages() - 1))

	// Pass 1: close partially-written blocks. Firmware pads an open block
	// after a crash so programming can only ever resume on fresh blocks.
	// The first filler page doubles as the rebuild-instant journal: a
	// translation marker stamped rebuiltAt, so the retention clock is
	// OOB-visible to any later rebuild of this medium.
	markerDone := rebuiltAt == 0 // a virgin medium needs no journal
	for blk := 0; blk < fc.TotalBlocks(); blk++ {
		wp := arr.WritePtr(blk)
		if wp == 0 || wp == ps {
			continue
		}
		for arr.WritePtr(blk) < ps {
			filler := flash.OOB{LPA: deltaPageLPA, BackPtr: flash.NullPPA, Kind: flash.KindTranslation}
			if !markerDone {
				filler = flash.OOB{LPA: rebuildMarkerLPA, BackPtr: flash.NullPPA, TS: rebuiltAt, Kind: flash.KindTranslation}
			}
			if _, _, err := arr.Program(blk, nil, filler, 0); err != nil {
				return nil, fmt.Errorf("rebuild: padding block %d: %w", blk, err)
			}
			markerDone = true
		}
	}

	// Pass 2: validity. Only each LPA's newest data version is valid; all
	// other programmed pages are invalid (retained versions, deltas count
	// as live content of their blocks — see below — and filler is dead).
	logical := uint64(b.LogicalPages())
	for lpa, h := range liveHead {
		if lpa >= logical {
			return nil, fmt.Errorf("rebuild: flash holds lpa %d beyond logical capacity %d", lpa, logical)
		}
		b.AMT[lpa] = h.ppa
		b.PVT[h.ppa] = true
	}
	for lpa, h := range imtHead {
		if live, ok := liveHead[lpa]; ok && live.ts <= h.ts {
			return nil, fmt.Errorf("rebuild: lpa %d has a delta (ts %v) newer than its live head (ts %v)", lpa, h.ts, live.ts)
		}
		if lpa >= logical {
			continue // corrupt delta metadata for an impossible LPA: inert
		}
		t.imt[lpa], t.imtSlot[lpa] = h.ppa, h.slot
	}

	legacy := t.newSegment()
	for blk := 0; blk < fc.TotalBlocks(); blk++ {
		if arr.WritePtr(blk) == 0 {
			continue
		}
		if blockBad[blk] {
			// A grown bad block's on-medium retirement record: re-retire it.
			adopted = append(adopted, ftl.AdoptedBlock{Blk: blk, Invalid: ps, Bad: true})
			continue
		}
		valid, invalid := 0, 0
		for off := 0; off < ps; off++ {
			ppa := arr.AddrOf(blk, off)
			oob, err := arr.PeekOOB(ppa)
			if err != nil {
				return nil, err
			}
			switch {
			case oob.Kind == flash.KindData && b.PVT[ppa]:
				valid++
			case oob.Kind == flash.KindData && inDelta[version{oob.LPA, oob.TS}]:
				// Compressed before the crash, its block not yet erased: the
				// delta is the retained copy, and the page is reclaimable
				// again. Left unmarked, walks would run down the data chain
				// past the delta chain's head and never reach the deltas below.
				invalid++
				t.prt[ppa] = true
			case oob.Kind == flash.KindData:
				// A retained version: re-register its invalidation so the
				// fresh window covers it (time of invalidation unknown →
				// conservatively "now", i.e. the rebuild instant).
				invalid++
				t.chain.Invalidate(uint64(ppa), rebuiltAt)
				t.st.Invalidations++
			case oob.Kind == flash.KindDelta || oob.Kind == flash.KindDeltaRaw:
				// Delta content is live until its cohort retires.
				b.PVT[ppa] = true
				valid++
			default: // filler padding, burned/torn pages
				invalid++
			}
		}
		adopted = append(adopted, ftl.AdoptedBlock{Blk: blk, Kind: blockKind[blk], Valid: valid, Invalid: invalid})
		if blockKind[blk] == flash.KindDelta {
			legacy.blocks = append(legacy.blocks, blk)
		}
	}
	if err := b.Adopt(adopted); err != nil {
		return nil, err
	}
	if len(legacy.blocks) > 0 {
		if len(t.cohorts) == 0 {
			t.cohorts = append(t.cohorts, nil)
		}
		t.cohorts[0] = legacy
	}
	// If every block was full (no padding page carried the journal), write
	// the rebuild-instant marker as an immediately-invalidated filler page
	// on the host frontier: OOB-visible, PVT-clean, reclaimable like any
	// other dead page. Best-effort — a completely full device cannot
	// journal, and a single rebuild needs no marker to be correct.
	if !markerDone {
		oob := flash.OOB{LPA: rebuildMarkerLPA, BackPtr: flash.NullPPA, TS: rebuiltAt, Kind: flash.KindTranslation}
		ppa, _, err := b.AppendPage(b.HostFrontier(), flash.KindData, nil, oob, rebuiltAt)
		switch {
		case err == nil:
			b.InvalidatePPA(ppa)
		case !errors.Is(err, ftl.ErrDeviceFull):
			return nil, fmt.Errorf("rebuild: journaling rebuild instant: %w", err)
		}
	}
	return t, nil
}
