package core

import (
	"errors"
	"math"
	"sort"

	"almanac/internal/delta"
	"almanac/internal/fault"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/invariant"
	"almanac/internal/obs"
	"almanac/internal/vclock"
)

// deltaPageLPA is the OOB LPA sentinel for packed delta pages, which hold
// deltas of many LPAs (individual LPAs live in the page header).
const deltaPageLPA = math.MaxUint64

// rebuildMarkerLPA is the OOB LPA sentinel for the rebuild-instant journal
// page Rebuild writes (a KindTranslation filler stamped with the rebuild
// timestamp, so the retention clock survives repeated crashes).
const rebuildMarkerLPA = math.MaxUint64 - 1

// bestVictim returns the data block GC would pick next, or -1.
func (t *TimeSSD) bestVictim() int {
	return t.VictimBlockOfKind(flash.KindData)
}

// victimQuality is the minimum number of a block's pages that must be
// reclaimable before collecting it is considered worthwhile: each freed
// page costs (valid/invalid) migrations, so thin victims inflate write
// amplification. The bar adapts to what utilisation makes achievable —
// half of the average per-block garbage — since at high usage no block can
// ever be half-garbage.
func (t *TimeSSD) victimQuality() int {
	ps := t.cfg.FTL.Flash.PagesPerBlock
	valid, blocks := 0, 0
	t.SealedBlocks(func(blk int, info *ftl.BlockInfo) {
		if info.Kind == flash.KindData {
			valid += info.Valid
			blocks++
		}
	})
	if blocks == 0 {
		return 2
	}
	q := (ps - valid/blocks) * 3 / 4
	if q < 2 {
		q = 2
	}
	if q > ps/4 {
		q = ps / 4
	}
	return q
}

// poorVictims reports whether reclamation has become inefficient: no
// expired delta block is queued and the best data victim falls below the
// quality bar (everything else is valid or retained).
func (t *TimeSSD) poorVictims() bool {
	if len(t.expiredDeltaBlocks) > 0 {
		return false
	}
	v := t.bestVictim()
	return v < 0 || t.Info[v].Invalid < t.victimQuality()
}

// cheapReclaimDeficit reports whether the stock of cheap reclamation —
// expired delta blocks plus data blocks with a healthy share of genuinely
// discardable pages (compressed, relocated, or expired; NOT retained pages,
// which cost compression work) — is below the low watermark's worth.
func (t *TimeSSD) cheapReclaimDeficit() bool {
	want := t.cfg.FTL.GCLowBlocks
	n := len(t.expiredDeltaBlocks)
	if n >= want {
		return false
	}
	ps := t.cfg.FTL.Flash.PagesPerBlock
	quality := t.victimQuality()
	t.SealedBlocks(func(blk int, info *ftl.BlockInfo) {
		if n >= want || info.Kind != flash.KindData || info.Invalid < quality {
			return
		}
		cheap := 0
		for off := 0; off < ps; off++ {
			ppa := t.Arr.AddrOf(blk, off)
			if t.PVT[ppa] {
				continue
			}
			if t.prt[ppa] {
				cheap++
				continue
			}
			if _, hit := t.chain.Contains(uint64(ppa)); !hit {
				cheap++
			}
		}
		if cheap >= quality {
			n++
		}
	})
	return n < want
}

// collectOnce is one pass of Algorithm 1 plus, under almanacdebug, a deep
// cross-consistency audit of the structures GC just touched.
func (t *TimeSSD) collectOnce(at vclock.Time) (vclock.Time, error) {
	ws := t.obs.Start()
	done, err := t.collectOncePass(at)
	t.obs.Record(obs.GCPass, 0, int64(at), int64(done), ws, err == nil)
	if invariant.Enabled && err == nil {
		// CheckInvariants is O(device); auditing every few GC passes keeps
		// debug-tag test runs tractable while still catching corruption
		// within a handful of passes of its introduction.
		t.gcAudits++
		if t.gcAudits%gcAuditEvery == 0 {
			invariant.AssertNoErr(t.CheckInvariants(), "post-GC AMT/PVT cross-consistency")
		}
	}
	return done, err
}

// gcAuditEvery is the deep-audit sampling interval under almanacdebug.
const gcAuditEvery = 8

// collectOncePass is one pass of Algorithm 1: erase an expired delta block
// if one exists (free space at zero migration cost); otherwise reclaim the
// data block with the most invalid pages.
func (t *TimeSSD) collectOncePass(at vclock.Time) (vclock.Time, error) {
	if n := len(t.expiredDeltaBlocks); n > 0 {
		blk := t.expiredDeltaBlocks[n-1]
		t.expiredDeltaBlocks = t.expiredDeltaBlocks[:n-1]
		t.GC.Runs++
		return t.eraseClearing(blk, at)
	}
	victim := t.VictimBlockOfKind(flash.KindData)
	if victim < 0 {
		return at, ftl.ErrDeviceFull
	}
	t.GC.Runs++
	return t.reclaimDataBlock(victim, at)
}

// reclaimDataBlock implements lines 5–26 of Algorithm 1: migrate valid
// pages, classify each invalid page as reclaimable / expired / retained,
// compress the retained ones into deltas, then erase the block.
func (t *TimeSSD) reclaimDataBlock(blk int, at vclock.Time) (vclock.Time, error) {
	var err error
	at, err = t.MigrateValidPages(blk, at, func(ppa flash.PPA) { t.prt[ppa] = true })
	if err != nil {
		return at, err
	}
	ps := t.cfg.FTL.Flash.PagesPerBlock
	for off := 0; off < ps; off++ {
		ppa := t.Arr.AddrOf(blk, off)
		if t.PVT[ppa] || t.prt[ppa] {
			// Valid pages were migrated above; PRT-marked pages were already
			// compressed or noted expired and can simply be discarded.
			continue
		}
		if _, hit := t.chain.Contains(uint64(ppa)); !hit {
			// Missing every Bloom filter proves the page expired (or was a
			// GC relocation shadow, which is reclaimable by construction).
			t.st.ExpiredReclaimed++
			continue
		}
		at, err = t.compressRetained(ppa, at)
		if err != nil {
			return at, err
		}
	}
	// Crash durability: any buffered delta whose source page sits in blk is
	// about to lose its on-flash copy. Flush those segments first, so the
	// erase never leaves a retained version existing only in RAM (a power
	// cut between erase and flush would silently drop history).
	at, err = t.flushPendingFrom(blk, at)
	if err != nil {
		return at, err
	}
	return t.eraseClearing(blk, at)
}

// flushPendingFrom flushes every segment holding a pending delta whose
// source page lies in blk. LPAs are visited in sorted order so the flash
// layout stays replay-deterministic.
func (t *TimeSSD) flushPendingFrom(blk int, at vclock.Time) (vclock.Time, error) {
	var lpas []uint64
	t.forEachPending(func(lpa uint64, p pendingDelta) {
		if t.Arr.BlockOf(p.src) == blk {
			lpas = append(lpas, lpa)
		}
	})
	sort.Slice(lpas, func(i, j int) bool { return lpas[i] < lpas[j] })
	for _, lpa := range lpas {
		p := t.pending[lpa]
		if p.d == nil {
			continue // an earlier flush in this loop already covered it
		}
		var err error
		if at, err = t.flushSegment(p.seg, at); err != nil {
			return at, err
		}
	}
	return at, nil
}

// eraseClearing erases blk and clears its PRT bits.
func (t *TimeSSD) eraseClearing(blk int, at vclock.Time) (vclock.Time, error) {
	base := blk * t.cfg.FTL.Flash.PagesPerBlock
	for off := 0; off < t.cfg.FTL.Flash.PagesPerBlock; off++ {
		t.prt[base+off] = false
	}
	return t.EraseBlock(blk, at)
}

// chainVersion is one retained version discovered by chain traversal.
type chainVersion struct {
	ppa  flash.PPA
	lpa  uint64
	ts   vclock.Time
	data []byte
	seg  int // Bloom-filter segment index the invalidation hit
}

// compressRetained compresses the retained invalid page at ppa — plus every
// older unexpired version reachable below it through the back-pointer chain
// (§3.7: once the victim is erased those versions would become unreachable)
// — into deltas against the latest version, and marks the source pages
// reclaimable in the PRT.
func (t *TimeSSD) compressRetained(ppa flash.PPA, at vclock.Time) (vclock.Time, error) {
	data, oob, done, err := t.Arr.Read(ppa, at)
	if err != nil {
		if errors.Is(err, flash.ErrReadFailed) {
			// The retained version is unrecoverable: this slice of history
			// is lost, but the device must keep going.
			t.ReadFailures++
			t.prt[ppa] = true
			return done, nil
		}
		return at, err
	}
	t.GC.Reads++
	at = done
	if oob.Kind != flash.KindData {
		return at, nil
	}
	lpa := oob.LPA
	seg, hit := t.chain.Contains(uint64(ppa))
	if !hit {
		t.st.ExpiredReclaimed++
		t.prt[ppa] = true
		return at, nil
	}
	// Chain-page data can be aliased rather than copied: within this pass
	// nothing programs over a programmed page (programs land only on erased
	// pages, and the victim's erase happens after compression finishes), so
	// the flash-owned bytes are stable until emitDelta consumes them.
	vers := append(t.gcVers[:0], chainVersion{ppa: ppa, lpa: lpa, ts: oob.TS, data: data, seg: seg})
	defer func() { t.gcVers = vers[:0] }()

	// Walk the chain below the victim collecting unexpired versions.
	prevTS := oob.TS
	cur := oob.BackPtr
	for cur != flash.NullPPA {
		if t.PVT[cur] || t.prt[cur] {
			break // relocated head shadow or already-compressed page
		}
		d2, o2, dn, err := t.Arr.Read(cur, at)
		if err != nil {
			break // chain ran into an erased page: older history expired
		}
		t.GC.Reads++
		at = dn
		if o2.Kind != flash.KindData || o2.LPA != lpa || o2.TS >= prevTS {
			break // stale pointer: the block was reused
		}
		s2, hit := t.chain.Contains(uint64(cur))
		if !hit {
			// Expired: it and everything older are reclaimable.
			t.st.ExpiredReclaimed++
			t.prt[cur] = true
			break
		}
		vers = append(vers, chainVersion{ppa: cur, lpa: lpa, ts: o2.TS, data: d2, seg: s2})
		prevTS = o2.TS
		cur = o2.BackPtr
	}

	// The latest valid version is the compression reference (§3.6).
	var ref []byte
	var refTS vclock.Time
	if head := t.AMT[lpa]; head != flash.NullPPA {
		rd, ro, dn, err := t.Arr.Read(head, at)
		switch {
		case err == nil:
			t.GC.Reads++
			at = dn
			ref = rd
			refTS = ro.TS
		case errors.Is(err, flash.ErrReadFailed):
			// The live head is unreadable: compress the retained versions
			// self-contained (no reference) so they at least survive.
			t.ReadFailures++
			at = dn
		default:
			return at, err
		}
	}

	// Emit deltas oldest-first so every delta's predecessor is already
	// placed (or never existed) when its back-pointer is resolved.
	for i := len(vers) - 1; i >= 0; i-- {
		at, err = t.emitDelta(&vers[i], ref, refTS, at)
		if err != nil {
			return at, err
		}
		t.prt[vers[i].ppa] = true
	}
	return at, nil
}

// emitDelta converts one retained version into a delta (or a raw retained
// page when compression does not pay) stored in its segment's delta blocks.
func (t *TimeSSD) emitDelta(v *chainVersion, ref []byte, refTS vclock.Time, at vclock.Time) (vclock.Time, error) {
	lpa := v.lpa
	var err error
	// Chain-order discipline: if a newer delta for this LPA is still
	// buffered, it must reach flash before this older one links below it.
	// The same flush keeps a packed page to at most one delta per LPA, which
	// is what makes a verified back-slot the entry a header search would
	// return (delta.Page.Hop).
	if p := t.pending[lpa]; p.d != nil {
		if at, err = t.flushSegment(p.seg, at); err != nil {
			return at, err
		}
	}
	prevHead := t.imt[lpa]
	seg := t.cohortFor(v.seg)

	if !t.cfg.DisableCompression {
		// Encode into the device's reusable scratch, then copy out
		// right-sized: the payload outlives this call inside the pending
		// buffer, and sealRetained returns its input unchanged when no
		// retention key is configured.
		enc, scratch := delta.EncodeWith(&t.lzc, t.encScratch[:0], v.data, ref)
		t.encScratch = scratch[:0]
		payload := append(make([]byte, 0, len(scratch)), scratch...)
		t.GC.DeltaOps++
		t.st.DeltasCreated++
		at = at.Add(t.cfg.DeltaCost)
		payload = t.sealRetained(lpa, v.ts, payload)
		d := &delta.Delta{LPA: lpa, BackPtr: uint64(prevHead), BackSlot: t.imtSlot[lpa], TS: v.ts, RefTS: refTS, Enc: enc, Payload: payload}
		if delta.NewBuffer(t.cfg.FTL.Flash.PageSize).Fits(d) {
			if !seg.buf.Fits(d) {
				if at, err = t.flushSegment(seg, at); err != nil {
					return at, err
				}
			}
			if !seg.buf.Add(d) {
				return at, errors.New("timessd: delta does not fit an empty buffer")
			}
			t.setPending(lpa, pendingDelta{d: d, seg: seg, src: v.ppa})
			return at, nil
		}
		// Falls through: even compressed it does not fit a packed page.
	}

	// Raw retention path: store the version whole in a delta block, chained
	// through its OOB back-pointer (kind KindDeltaRaw).
	oob := flash.OOB{LPA: lpa, BackPtr: prevHead, TS: v.ts, Kind: flash.KindDeltaRaw}
	ppa, done, err := t.programDeltaPage(seg, t.sealRetained(lpa, v.ts, v.data), oob, at)
	if err != nil {
		return at, err
	}
	t.imt[lpa] = ppa
	t.imtSlot[lpa] = 0 // a raw page's OOB has no room for a slot
	return done, nil
}

// cohortFor returns the delta cohort for Bloom-filter chain index i
// (0 = oldest live filter). Cohorts are keyed by the stable segment id so
// window drops do not shift the mapping.
func (t *TimeSSD) cohortFor(i int) *segment {
	if i < 0 {
		i = 0
	}
	stable := t.droppedSegs + i
	id := stable / t.cfg.CohortSegments
	for id >= len(t.cohorts) {
		t.cohorts = append(t.cohorts, nil)
	}
	seg := t.cohorts[id]
	if seg == nil {
		seg = t.newSegment()
		t.cohorts[id] = seg
	}
	return seg
}

// flushSegment programs the segment's buffered deltas as one packed delta
// page and updates the index mapping table for every delta it contains.
func (t *TimeSSD) flushSegment(seg *segment, at vclock.Time) (vclock.Time, error) {
	page, ds, err := seg.buf.Flush()
	if err != nil {
		return at, err
	}
	if page == nil {
		return at, nil
	}
	ws := t.obs.Start()
	oob := flash.OOB{LPA: deltaPageLPA, BackPtr: flash.NullPPA, TS: at, Kind: flash.KindDelta}
	ppa, done, err := t.programDeltaPage(seg, page, oob, at)
	if err != nil {
		t.obs.Record(obs.DeltaFlush, 0, int64(at), int64(at), ws, false)
		// The buffer was already drained by Flush. Put the deltas back so
		// the retained versions are not silently lost and the pending index
		// stays consistent with the buffer contents (a stale pending entry
		// would outlive its cohort's retirement and serve data that never
		// reached delta storage).
		for _, d := range ds {
			if !seg.buf.Add(d) {
				t.clearPending(d.LPA)
			}
		}
		return at, err
	}
	for i, d := range ds {
		if invariant.Enabled {
			// Slot addressing rests on this (delta.Page.Hop): a second delta
			// of the LPA in one page would make slot and search disagree.
			for _, e := range ds[:i] {
				invariant.Assert(e.LPA != d.LPA, "delta page %d packs two deltas of lpa %d", ppa, d.LPA)
			}
		}
		t.imt[d.LPA] = ppa
		t.imtSlot[d.LPA] = uint16(i + 1)
		if t.pending[d.LPA].d == d {
			t.clearPending(d.LPA)
		}
	}
	t.st.DeltaPagesWritten++
	t.obs.Record(obs.DeltaFlush, 0, int64(at), int64(done), ws, true)
	return done, nil
}

// programDeltaPage appends one page to the segment's active delta block,
// allocating and sealing blocks as needed. Program failures burn a page and
// are retried on the next page (or a fresh block once the burned one
// seals); termination follows from finite capacity, ending in
// ErrDeviceFull when a pathological plan fails everything.
func (t *TimeSSD) programDeltaPage(seg *segment, data []byte, oob flash.OOB, at vclock.Time) (flash.PPA, vclock.Time, error) {
	for {
		if seg.activeBlk < 0 {
			blk := t.AllocDedicated(flash.KindDelta, len(seg.blocks))
			if blk < 0 {
				return flash.NullPPA, at, ftl.ErrDeviceFull
			}
			seg.activeBlk = blk
		}
		ppa, done, sealed, err := t.ProgramDedicated(seg.activeBlk, data, oob, at)
		if err != nil {
			if errors.Is(err, fault.ErrProgramFail) {
				if sealed {
					seg.blocks = append(seg.blocks, seg.activeBlk)
					seg.activeBlk = -1
				}
				at = done
				continue
			}
			return flash.NullPPA, at, err
		}
		t.GC.Writes++
		if sealed {
			seg.blocks = append(seg.blocks, seg.activeBlk)
			seg.activeBlk = -1
		}
		return ppa, done, nil
	}
}

// FlushDeltas forces every segment buffer to flash. Tests and shutdown
// paths use it; normal operation flushes on pressure.
func (t *TimeSSD) FlushDeltas(at vclock.Time) (vclock.Time, error) {
	t.gen++
	for _, seg := range t.cohorts {
		if seg == nil {
			continue
		}
		var err error
		if at, err = t.flushSegment(seg, at); err != nil {
			return at, err
		}
	}
	return at, nil
}

// discountBackground subtracts GC work performed since `before` from the
// Eq. 1 estimator's view by advancing its baseline: background reclamation
// and compression never delayed a host request, so they must not trigger
// retention shedding.
func (t *TimeSSD) discountBackground(before ftl.GCCounters) {
	cur := t.GC
	t.baseGC.Reads += cur.Reads - before.Reads
	t.baseGC.Writes += cur.Writes - before.Writes
	t.baseGC.Erases += cur.Erases - before.Erases
	t.baseGC.DeltaOps += cur.DeltaOps - before.DeltaOps
}

// observeArrival feeds the idle-time predictor (§3.6): the next idle period
// is estimated by exponential smoothing over past inter-arrival gaps.
func (t *TimeSSD) observeArrival(at vclock.Time) {
	if !t.started {
		t.started = true
		t.lastArrival = at
		return
	}
	if at < t.lastArrival {
		return
	}
	interval := at.Sub(t.lastArrival)
	a := t.cfg.IdleAlpha
	t.predictedIdle = vclock.Duration(a*float64(interval) + (1-a)*float64(t.predictedIdle))
	t.lastArrival = at
}

// Idle tells the device no host I/O will arrive before `until`. If the
// predictor expects a long enough gap, TimeSSD compresses retained pages of
// the block with the most invalid pages in the background, marking them
// reclaimable so future GC can discard them without migration (§3.6).
// Work stops as soon as virtual time reaches `until` (the paper suspends
// background compression when a request arrives).
func (t *TimeSSD) Idle(now, until vclock.Time) {
	t.gen++
	gap := until.Sub(now)
	if gap < t.cfg.IdleThreshold {
		return
	}
	// Short gaps start background work only if the predictor expects the
	// quiet period to last; an unambiguously long gap (two orders of
	// magnitude past the threshold) needs no prediction — the firmware has
	// visibly gone idle.
	if gap < 100*t.cfg.IdleThreshold && t.predictedIdle < t.cfg.IdleThreshold {
		return
	}
	at := now
	// Stage 1 — background GC: refill the free pool to the high watermark
	// so bursts rarely trigger foreground reclamation. If reclamation is
	// inefficient because retained history packs the device, shed the
	// oldest segment (space is needed now). Background work is excluded
	// from the Eq. 1 estimate: it never delayed a host request, and a
	// space-pressed simulator must pay background churn for retention that
	// the paper's never-full board gets for free — counting it would shed
	// the window to its minimum permanently (see DESIGN.md §4a).
	gcBefore := t.GC
	pass := ftl.GCPassCost(t.cfg.FTL)
refill:
	for until.Sub(at) > pass && t.FreeBlocks() < t.cfg.FTL.GCHighBlocks {
		// Never reclaim a thin victim in the background: migrating a
		// nearly-all-valid block plus writing its deltas can consume more
		// pages than the erase frees. Shed history until reclamation is
		// profitable; if nothing can be shed, leave the pool for the
		// (estimator-governed) foreground path.
		for t.poorVictims() {
			if !t.shortenWindow(at) {
				break refill
			}
		}
		done, err := t.collectOnce(at)
		if err != nil {
			break refill
		}
		at = done
	}
	// Wear leveling is background work too: cold swaps run here, where the
	// migration cost delays nothing.
	if t.WearCheckDue() && t.WearImbalanced() {
		if done, err := t.wearLevel(at, 4); err == nil {
			at = done
		}
	}
	t.discountBackground(gcBefore)

	// Stage 2 — idle delta compression (§3.6): condense retained versions
	// so they stop occupying whole pages, and mark the sources reclaimable
	// in the PRT. This both extends the retention window and stocks the
	// cheap-reclamation reserve without sacrificing any history.
	gcBefore = t.GC
	d0 := t.GC.DeltaOps
	defer func() {
		t.st.IdleCompressions += t.GC.DeltaOps - d0
		t.discountBackground(gcBefore)
	}()
	if !t.cfg.DisableIdleCompression && !t.cfg.DisableCompression {
		// One scan builds the candidate list (most invalid pages first);
		// re-picking a victim per block would be O(blocks²).
		type cand struct{ blk, invalid int }
		var cands []cand
		t.SealedBlocks(func(blk int, info *ftl.BlockInfo) {
			if info.Kind == flash.KindData && info.Invalid > 0 {
				cands = append(cands, cand{blk, info.Invalid})
			}
		})
		sort.Slice(cands, func(i, j int) bool { return cands[i].invalid > cands[j].invalid })
		ps := t.cfg.FTL.Flash.PagesPerBlock
		for _, c := range cands {
			if !at.Before(until) {
				break
			}
			for off := 0; off < ps && at.Before(until); off++ {
				ppa := t.Arr.AddrOf(c.blk, off)
				if t.PVT[ppa] || t.prt[ppa] {
					continue
				}
				if _, hit := t.chain.Contains(uint64(ppa)); !hit {
					t.st.ExpiredReclaimed++
					t.prt[ppa] = true
					continue
				}
				var err error
				at, err = t.compressRetained(ppa, at)
				if err != nil {
					return
				}
			}
		}
	}

	// Stage 3 — last resort, and only when the device is tight: if even
	// after compression the next burst would face only expensive victims,
	// shed the oldest history until the cheap-reclamation reserve is
	// stocked. A device with ample free space never sheds.
	for at.Before(until) && t.FreeBlocks() < 2*t.cfg.FTL.GCHighBlocks && t.cheapReclaimDeficit() {
		if !t.shortenWindow(at) {
			return
		}
	}
}
