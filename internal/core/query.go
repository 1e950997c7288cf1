package core

import (
	"bytes"
	"math"

	"almanac/internal/delta"
	"almanac/internal/flash"
	"almanac/internal/invariant"
	"almanac/internal/obs"
	"almanac/internal/vclock"
)

// Version is one recoverable state of a logical page.
type Version struct {
	TS   vclock.Time // write timestamp of this version
	Data []byte
	Live bool // true for the current (valid) version
}

const maxTime = vclock.Time(math.MaxInt64)

// Versions returns every retrievable version of lpa, newest first. The
// first entry (if any) is the live version; the rest are retained invalid
// versions recovered through the data-page and delta-page chains (§3.7).
// Reads are charged to virtual time; done is when the last read completes.
//
// Returned Version.Data slices are read-only views that may alias device
// storage — the same contract as Read — and stay valid until the next
// mutating operation (Write, Trim, RollBack, Idle) on the device, and never
// once the device is unreachable; copy to retain content past either.
func (t *TimeSSD) Versions(lpa uint64, at vclock.Time) ([]Version, vclock.Time, error) {
	if err := t.CheckLPA(lpa); err != nil {
		return nil, at, err
	}
	out := make([]Version, 0, 8)
	prevTS := maxTime

	// Live head, if the LPA is mapped.
	cur := flash.NullPPA
	if head := t.AMT[lpa]; head != flash.NullPPA {
		data, oob, done, err := t.Arr.Read(head, at)
		if err != nil {
			return nil, at, err
		}
		at = done
		out = append(out, Version{TS: oob.TS, Data: data, Live: true})
		prevTS = oob.TS
		cur = oob.BackPtr
	} else if rec := t.trimmed[lpa]; rec.head != flash.NullPPA {
		cur = rec.head
	}

	// Data-page chain: uncompressed retained versions. Every hop is
	// verified against the OOB (correct LPA, strictly decreasing TS) so a
	// stale back-pointer into a reused block terminates the walk (§3.7).
	for cur != flash.NullPPA {
		if t.PVT[cur] || t.prt[cur] {
			break // relocation shadow, or continued in the delta chain
		}
		data, oob, done, err := t.Arr.Read(cur, at)
		if err != nil {
			break // chain ran into an erased block
		}
		at = done
		if oob.Kind != flash.KindData || oob.LPA != lpa || oob.TS >= prevTS {
			break
		}
		if _, hit := t.chain.Contains(uint64(cur)); !hit {
			break // expired: outside the retention window
		}
		out = append(out, Version{TS: oob.TS, Data: data})
		prevTS = oob.TS
		cur = oob.BackPtr
	}

	// Delta-page chain: first the (at most one) pending buffered delta,
	// then the on-flash chain headed by the index mapping table.
	dcur, dslot := flash.NullPPA, uint16(0)
	if p := t.pending[lpa]; p.d != nil && p.d.TS < prevTS {
		if data, hit := t.cachedDecode(p.d, out); hit {
			at = t.chargeDecode(p.d.Enc, at)
			out = append(out, Version{TS: p.d.TS, Data: data})
			prevTS = p.d.TS
			dcur, dslot = flash.PPA(p.d.BackPtr), p.d.BackSlot
		}
	} else if h := t.imt[lpa]; h != flash.NullPPA {
		dcur, dslot = h, t.imtSlot[lpa]
	}

	for dcur != flash.NullPPA {
		data, oob, done, err := t.Arr.Read(dcur, at)
		if err != nil {
			break // segment retired and erased
		}
		at = done
		switch oob.Kind {
		case flash.KindDeltaRaw:
			if oob.LPA != lpa || oob.TS >= prevTS {
				return out, at, nil
			}
			cp := t.refcache.get(lpa, oob.TS)
			if cp != nil {
				if invariant.Enabled && !t.faultsArmed {
					cold := t.openRetained(oob.LPA, oob.TS, data)
					invariant.Assert(bytes.Equal(cold, cp),
						"refcache: cached raw version differs from cold decode (lpa %d ts %d)", lpa, oob.TS)
				}
				// Copy out: the cache slot can be evicted and its buffer
				// reused by a later query, which is not a device mutation.
				cp = append([]byte(nil), cp...)
			} else {
				// openRetained returns its input unchanged when no retention
				// key is configured, so cp may alias the flash page — covered
				// by the read-only until-next-mutation contract above.
				cp = t.openRetained(oob.LPA, oob.TS, data)
				t.refcache.put(lpa, oob.TS, cp)
			}
			out = append(out, Version{TS: oob.TS, Data: cp})
			prevTS = oob.TS
			dcur, dslot = oob.BackPtr, 0 // OOB carries no slot: the next hop searches
		case flash.KindDelta:
			pg, i := t.hop(data, dslot, lpa, prevTS)
			var mine delta.Delta
			if i < 0 || pg.Delta(i, &mine) != nil {
				return out, at, nil
			}
			dec, ok := t.cachedDecode(&mine, out)
			if !ok {
				return out, at, nil
			}
			at = t.chargeDecode(mine.Enc, at)
			out = append(out, Version{TS: mine.TS, Data: dec})
			prevTS = mine.TS
			dcur, dslot = flash.PPA(mine.BackPtr), mine.BackSlot
		default:
			return out, at, nil
		}
	}
	return out, at, nil
}

// hop steps a chain walk into the packed delta page `data`: the index of
// lpa's entry older than `before`, or -1 (no such entry, or the page does not
// parse). The slot only ever saves the header search (delta.Page.Hop), so
// under almanacdebug every hop is shadow-checked against that search —
// except under injected faults, where silent corruption can legitimately
// break the one-delta-per-LPA-per-page invariant the equality rests on.
func (t *TimeSSD) hop(data []byte, slot uint16, lpa uint64, before vclock.Time) (delta.Page, int) {
	pg, err := delta.OpenPage(data)
	if err != nil {
		return pg, -1
	}
	i := pg.Hop(slot, lpa, before)
	if invariant.Enabled && !t.faultsArmed {
		want := pg.Find(lpa, before)
		invariant.Assert(i == want,
			"delta chain: slot %d resolved to entry %d, header search to %d (lpa %d before %d)",
			slot, i, want, lpa, before)
	}
	return pg, i
}

// cachedDecode reconstructs a delta's version through the reference cache:
// on a hit the host-side decode (LZF, XOR, retained-data decryption) is
// skipped, on a miss the cold decode is performed and cached. Either way the
// caller charges the same virtual-time decode cost — the cache alters host
// speed only. The returned slice is private to the caller.
func (t *TimeSSD) cachedDecode(d *delta.Delta, walked []Version) ([]byte, bool) {
	if cached := t.refcache.get(d.LPA, d.TS); cached != nil {
		if invariant.Enabled && !t.faultsArmed {
			cold, err := t.decodeDelta(d, walked)
			invariant.AssertNoErr(err, "refcache shadow decode")
			invariant.Assert(bytes.Equal(cold, cached),
				"refcache: cached version differs from cold decode (lpa %d ts %d)", d.LPA, d.TS)
		}
		return append([]byte(nil), cached...), true
	}
	dec, err := t.decodeDelta(d, walked)
	if err != nil {
		return nil, false
	}
	t.refcache.put(d.LPA, d.TS, dec)
	return dec, true
}

// chargeDecode charges the firmware CPU cost of decompressing one delta
// (the source of TimeSSD's ≈14% recovery-time overhead vs FlashGuard-style
// raw retention, §5.5.1). Raw payloads cost nothing.
func (t *TimeSSD) chargeDecode(enc delta.Encoding, at vclock.Time) vclock.Time {
	if enc == delta.EncXORLZF || enc == delta.EncRawLZF {
		return at.Add(t.cfg.DeltaCost)
	}
	return at
}

// decodeDelta reconstructs a version from its delta. XOR deltas need the
// reference version, which — because obsolete versions are reclaimed in
// time order — has always been reconstructed earlier in the walk, so a
// linear scan over the versions walked so far finds it (version counts are
// small; a per-call map would cost an allocation per query).
func (t *TimeSSD) decodeDelta(d *delta.Delta, walked []Version) ([]byte, error) {
	var ref []byte
	if d.Enc == delta.EncXORLZF {
		for i := range walked {
			if walked[i].TS == d.RefTS {
				ref = walked[i].Data
				break
			}
		}
	}
	payload := t.openRetained(d.LPA, d.TS, d.Payload)
	return delta.Decode(d.Enc, payload, ref, t.PageSize())
}

// VersionAt returns the version of lpa that was current at time `when`
// (the newest version with TS ≤ when), or nil if the page had no content
// at that time.
func (t *TimeSSD) VersionAt(lpa uint64, when, at vclock.Time) (*Version, vclock.Time, error) {
	vers, done, err := t.Versions(lpa, at)
	if err != nil {
		return nil, done, err
	}
	for i := range vers {
		if vers[i].TS <= when {
			return &vers[i], done, nil
		}
	}
	return nil, done, nil
}

// appendTimestamps appends the write timestamps of every retrievable
// version of lpa (newest first) to out without decompressing content.
// Data-chain hops read only OOB; a delta-chain hop reads its page and one
// header entry. A scan that walks many LPAs passes one slice for all of
// them. lpa must be in range.
func (t *TimeSSD) appendTimestamps(out []vclock.Time, lpa uint64, at vclock.Time) ([]vclock.Time, vclock.Time, error) {
	prevTS := maxTime

	cur := flash.NullPPA
	if head := t.AMT[lpa]; head != flash.NullPPA {
		oob, done, err := t.Arr.ReadOOB(head, at)
		if err != nil {
			return nil, at, err
		}
		at = done
		out = append(out, oob.TS)
		prevTS = oob.TS
		cur = oob.BackPtr
	} else if rec := t.trimmed[lpa]; rec.head != flash.NullPPA {
		cur = rec.head
	}

	for cur != flash.NullPPA {
		if t.PVT[cur] || t.prt[cur] {
			break
		}
		oob, done, err := t.Arr.ReadOOB(cur, at)
		if err != nil {
			break
		}
		at = done
		if oob.Kind != flash.KindData || oob.LPA != lpa || oob.TS >= prevTS {
			break
		}
		if _, hit := t.chain.Contains(uint64(cur)); !hit {
			break
		}
		out = append(out, oob.TS)
		prevTS = oob.TS
		cur = oob.BackPtr
	}

	dcur, dslot := flash.NullPPA, uint16(0)
	if p := t.pending[lpa]; p.d != nil && p.d.TS < prevTS {
		out = append(out, p.d.TS)
		prevTS = p.d.TS
		dcur, dslot = flash.PPA(p.d.BackPtr), p.d.BackSlot
	} else if h := t.imt[lpa]; h != flash.NullPPA {
		dcur, dslot = h, t.imtSlot[lpa]
	}
	for dcur != flash.NullPPA {
		data, oob, done, err := t.Arr.Read(dcur, at)
		if err != nil {
			break
		}
		at = done
		if oob.Kind == flash.KindDeltaRaw {
			if oob.LPA != lpa || oob.TS >= prevTS {
				break
			}
			out = append(out, oob.TS)
			prevTS = oob.TS
			dcur, dslot = oob.BackPtr, 0
			continue
		}
		if oob.Kind != flash.KindDelta {
			break
		}
		pg, i := t.hop(data, dslot, lpa, prevTS)
		if i < 0 {
			break
		}
		_, prevTS = pg.Key(i)
		out = append(out, prevTS)
		back, slot := pg.Link(i)
		dcur, dslot = flash.PPA(back), slot
	}
	return out, at, nil
}

// UpdateRecord reports the update history of one LPA within a time query.
type UpdateRecord struct {
	LPA   uint64
	Times []vclock.Time // write timestamps within the queried range, newest first
}

// hasHistory reports whether lpa currently has retrievable state: it is
// mapped, or it was trimmed and its chain is remembered.
func (t *TimeSSD) hasHistory(lpa uint64) bool {
	return t.AMT[lpa] != flash.NullPPA || t.trimmed[lpa].head != flash.NullPPA
}

// CandidateLPAs returns every LPA that currently has retrievable state, in
// ascending order.
func (t *TimeSSD) CandidateLPAs() []uint64 {
	var out []uint64
	for lpa := uint64(0); lpa < uint64(t.LogicalPages()); lpa++ {
		if t.hasHistory(lpa) {
			out = append(out, lpa)
		}
	}
	return out
}

// UpdatedBetween scans every candidate LPA for versions written in
// [from, to] and returns their timestamps, in ascending LPA order. Per-LPA
// walks start at the same virtual instant, so the per-channel busy horizons
// model the paper's chip-parallel query execution; done is the completion
// of the slowest channel. The scan allocates only what it returns: one
// Times slice per matching record.
func (t *TimeSSD) UpdatedBetween(from, to vclock.Time, at vclock.Time) ([]UpdateRecord, vclock.Time, error) {
	var out []UpdateRecord
	done := at
	for lpa := uint64(0); lpa < uint64(t.LogicalPages()); lpa++ {
		if !t.hasHistory(lpa) {
			continue
		}
		ts, d, err := t.appendTimestamps(t.tsScratch[:0], lpa, at)
		if err != nil {
			return out, done, err
		}
		t.tsScratch = ts[:0]
		if d > done {
			done = d
		}
		// A deletion inside the range is an update of this LPA's state even
		// though it created no new version.
		rec := t.trimmed[lpa]
		trimHit := rec.head != flash.NullPPA && rec.ts >= from && rec.ts <= to
		// ts descends strictly, so the versions inside [from, to] are one run.
		lo := 0
		for lo < len(ts) && ts[lo] > to {
			lo++
		}
		hi := lo
		for hi < len(ts) && ts[hi] >= from {
			hi++
		}
		n := hi - lo
		if trimHit {
			n++
		}
		if n == 0 {
			continue
		}
		hit := make([]vclock.Time, 0, n)
		if trimHit {
			hit = append(hit, rec.ts)
		}
		hit = append(hit, ts[lo:hi]...)
		out = append(out, UpdateRecord{LPA: lpa, Times: hit})
	}
	return out, done, nil
}

// RollBack reverts lpa to the version current at time `when` by writing
// that version back as a fresh update (§3.9): the rolled-back state is just
// another version, so nothing retrievable is lost. If the page had no
// content at `when`, the LPA is trimmed.
func (t *TimeSSD) RollBack(lpa uint64, when, at vclock.Time) (vclock.Time, error) {
	ws := t.obs.Start()
	issue := at
	done, err := t.rollBackOne(lpa, when, at)
	t.obs.Record(obs.Rollback, lpa, int64(issue), int64(done), ws, err == nil)
	return done, err
}

func (t *TimeSSD) rollBackOne(lpa uint64, when, at vclock.Time) (vclock.Time, error) {
	v, done, err := t.VersionAt(lpa, when, at)
	if err != nil {
		return done, err
	}
	at = done
	if v == nil {
		return t.Trim(lpa, at)
	}
	if v.Live {
		return at, nil // already at the requested state
	}
	// Copy before writing back: v.Data may alias flash storage, and the
	// write's own GC could reclaim that page mid-operation.
	return t.Write(lpa, append([]byte(nil), v.Data...), at)
}

// RollBackAll reverts every candidate LPA to its state at time `when`.
// It returns the number of pages changed. Rolling back the whole device is
// write-intensive and may legitimately fail with ErrRetentionFull if it
// would violate the minimum retention guarantee (§3.9).
func (t *TimeSSD) RollBackAll(when, at vclock.Time) (int, vclock.Time, error) {
	ws := t.obs.Start()
	issue := at
	changed, done, err := t.rollBackAll(when, at)
	// One trace event spans the whole device rollback; the per-LPA writes
	// and trims it issued were recorded under their own classes.
	t.obs.Record(obs.Rollback, 0, int64(issue), int64(done), ws, err == nil)
	return changed, done, err
}

func (t *TimeSSD) rollBackAll(when, at vclock.Time) (int, vclock.Time, error) {
	changed := 0
	for _, lpa := range t.CandidateLPAs() {
		v, done, err := t.VersionAt(lpa, when, at)
		if err != nil {
			return changed, done, err
		}
		at = done
		if v == nil {
			if t.AMT[lpa] == flash.NullPPA {
				continue
			}
			if at, err = t.Trim(lpa, at); err != nil {
				return changed, at, err
			}
			changed++
			continue
		}
		if v.Live {
			continue
		}
		// Same aliasing hazard as rollBackOne: copy before writing back.
		if at, err = t.Write(lpa, append([]byte(nil), v.Data...), at); err != nil {
			return changed, at, err
		}
		changed++
	}
	return changed, at, nil
}
