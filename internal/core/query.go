package core

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"almanac/internal/delta"
	"almanac/internal/fault"
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
// It walks eagerly (walk): each delta is rebuilt in a page of its own as
// the walk reaches it. The answer is copied out of the device's walk
// scratch at its exact length.
//
// Returned Version.Data slices are read-only views that may alias device
// storage — the same contract as Read — and stay valid until the next
// mutating operation (Write, Trim, RollBack, Idle) on the device, and never
// once the device is unreachable; copy to retain content past either.
func (t *TimeSSD) Versions(lpa uint64, at vclock.Time) ([]Version, vclock.Time, error) {
	if err := t.CheckLPA(lpa); err != nil {
		return nil, at, err
	}
	w := &t.atWalk
	w.mode, w.eager, w.vers, w.kept = walkKeep, true, w.vers[:0], w.kept[:0]
	done, err := t.walk(w, lpa, at)
	if err != nil {
		return nil, at, err
	}
	return append(make([]Version, 0, len(w.vers)), w.vers...), done, nil
}

// VersionAt returns the version of lpa that was current at time `when`
// (the newest version with TS ≤ when), or nil if the page had no content
// at that time. It reads and charges exactly what Versions does, decode
// costs included, but defers: it keeps every delta encoded while it walks
// and then rebuilds only the version it returns, through the XOR
// references that version needs (resolve): the versions older than it,
// most of a long chain, are never decompressed. It walks eagerly, as
// Versions does, wherever a payload can fail to decode, because a failed
// decode ends the walk: while a fault plan is armed (a silent bit flip),
// and on a device Rebuild mounted (a payload sealed under another
// retention key, §3.10). Returned Data follows Versions' contract.
func (t *TimeSSD) VersionAt(lpa uint64, when, at vclock.Time) (*Version, vclock.Time, error) {
	v, found, done, err := t.versionAt(lpa, when, at, nil)
	if !found {
		return nil, done, err
	}
	return &v, done, err
}

// versionAt is VersionAt, with found false where VersionAt returns nil,
// and a destination for the content it decodes: resolve builds a delta's
// version in dst, a page long, or in an allocation of its own when dst is
// nil. Any other content is the walk's own: a view that may alias flash
// (a data page, an unsealed raw page), or a page an eager walk rebuilt.
func (t *TimeSSD) versionAt(lpa uint64, when, at vclock.Time, dst []byte) (v Version, found bool, done vclock.Time, err error) {
	if err := t.CheckLPA(lpa); err != nil {
		return Version{}, false, at, err
	}
	w := &t.atWalk
	w.mode, w.eager, w.vers, w.kept = walkKeep, t.faultsArmed || t.eagerVersionAt, w.vers[:0], w.kept[:0]
	var busy []vclock.Time
	if invariant.Enabled && !w.eager {
		busy = t.Arr.Horizons(nil)
	}
	done, err = t.walk(w, lpa, at)
	if err != nil {
		return Version{}, false, at, err
	}
	for i := range w.vers {
		if w.vers[i].TS <= when {
			v, found = w.vers[i], true
			if v.Data, err = t.resolve(w, lpa, i, dst); err != nil {
				return Version{}, false, done, err
			}
			break
		}
	}
	if invariant.Enabled && !w.eager {
		t.shadowVersionAt(lpa, when, at, busy, v, found, done)
	}
	return v, found, done, nil
}

// walkMode is what a chain walk keeps of each version it reaches.
type walkMode uint8

const (
	// walkKeep keeps every version it reaches as a keptVersion and
	// charges each delta's decode; resolve rebuilds a version from what
	// it kept.
	walkKeep walkMode = iota
	// walkStamps keeps each version's write timestamp and the channel of
	// every read in a scanMemo. It decodes nothing and charges no decode.
	walkStamps
)

// chainWalk is the state of one walk of an LPA's chains (walk).
type chainWalk struct {
	mode walkMode
	// eager, on a walkKeep walk, rebuilds each version as the walk
	// reaches it (hold), so every version it keeps is held as a data
	// page and a delta that does not decode ends the walk.
	eager bool
	vers  []Version     // walkKeep: the versions found, newest first
	kept  []keptVersion // walkKeep: how each of vers is held for resolve
	memo  *scanMemo     // walkStamps: where timestamps and read channels go

	// resolve's staging, reused across calls: the versions it rebuilds
	// the target through, target first.
	need []int

	// busy, set only by the almanacdebug shadow of VersionAt, makes the
	// walk dry: its reads charge nothing and queue on these channel
	// horizons.
	busy []vclock.Time
}

// keptVersion is how a walkKeep walk holds one version for resolve.
type keptVersion struct {
	kind keptKind
	ref  int         // index in vers of the version a kept delta decodes against, or -1
	d    delta.Delta // keptDelta: the delta, payload still encoded
}

type keptKind uint8

const (
	keptData  keptKind = iota // Version.Data is the content: a data page
	keptDelta                 // decode d
	keptRaw                   // Version.Data is a raw retained page, still sealed
)

// walk follows lpa's chains from at, newest version first (§3.7): the live
// head, or a trimmed LPA's remembered head; the data-page chain of
// uncompressed retained versions; then the delta chain, the pending
// buffered delta first and then the on-flash chain the index mapping table
// heads. Every hop is verified against the OOB (the right LPA, strictly
// decreasing TS), so a stale back-pointer into a reused block ends the
// walk. Each mode is charged the same reads, and a walkKeep walk the same
// decodes eager or not. Only a failed read of the live head is an error;
// anything else the walk cannot follow ends it.
func (t *TimeSSD) walk(w *chainWalk, lpa uint64, at vclock.Time) (vclock.Time, error) {
	prevTS := maxTime

	cur := flash.NullPPA
	if head := t.AMT[lpa]; head != flash.NullPPA {
		data, oob, done, err := w.read(t, head, at)
		if err != nil {
			return at, err
		}
		at = done
		w.found(oob.TS, data, true)
		prevTS = oob.TS
		cur = oob.BackPtr
	} else if rec := t.trimmed[lpa]; rec.head != flash.NullPPA {
		cur = rec.head
	}

	for cur != flash.NullPPA {
		if t.PVT[cur] || t.prt[cur] {
			break // relocation shadow, or continued in the delta chain
		}
		data, oob, done, err := w.read(t, cur, at)
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
		w.found(oob.TS, data, false)
		prevTS = oob.TS
		cur = oob.BackPtr
	}

	dcur, dslot := flash.NullPPA, uint16(0)
	if p := t.pending[lpa]; p.d != nil && p.d.TS < prevTS {
		var ok bool
		if at, ok = t.takeDelta(w, lpa, p.d, at); ok {
			prevTS = p.d.TS
			dcur, dslot = flash.PPA(p.d.BackPtr), p.d.BackSlot
		}
	} else if h := t.imt[lpa]; h != flash.NullPPA {
		dcur, dslot = h, t.imtSlot[lpa]
	}
	for dcur != flash.NullPPA {
		data, oob, done, err := w.read(t, dcur, at)
		if err != nil {
			break // segment retired and erased
		}
		at = done
		switch oob.Kind {
		case flash.KindDeltaRaw:
			if oob.LPA != lpa || oob.TS >= prevTS {
				return at, nil
			}
			t.takeRaw(w, lpa, oob.TS, data)
			prevTS = oob.TS
			dcur, dslot = oob.BackPtr, 0 // OOB carries no slot: the next hop searches
		case flash.KindDelta:
			pg, i := t.hop(data, dslot, lpa, prevTS)
			if i < 0 {
				return at, nil
			}
			if w.mode == walkStamps {
				// A timestamp needs only the entry's header fields.
				_, prevTS = pg.Key(i)
				w.memo.ts = append(w.memo.ts, prevTS)
				back, slot := pg.Link(i)
				dcur, dslot = flash.PPA(back), slot
				continue
			}
			var mine delta.Delta
			if pg.Delta(i, &mine) != nil {
				return at, nil
			}
			var ok bool
			if at, ok = t.takeDelta(w, lpa, &mine, at); !ok {
				return at, nil
			}
			prevTS = mine.TS
			dcur, dslot = flash.PPA(mine.BackPtr), mine.BackSlot
		default:
			return at, nil
		}
	}
	return at, nil
}

// read is the walk's flash read: charged, and recorded in the memo on a
// timestamps walk; on a dry walk, charged to nothing (dryRead).
func (w *chainWalk) read(t *TimeSSD, ppa flash.PPA, at vclock.Time) ([]byte, flash.OOB, vclock.Time, error) {
	if invariant.Enabled && w.busy != nil {
		return t.dryRead(w.busy, ppa, at)
	}
	data, oob, done, err := t.Arr.Read(ppa, at)
	if err == nil && w.mode == walkStamps {
		w.memo.read(t.Arr, ppa)
	}
	return data, oob, done, err
}

// found takes a version whose content is the flash page just read: the
// live head or a data-chain hop.
func (w *chainWalk) found(ts vclock.Time, data []byte, live bool) {
	if w.mode == walkStamps {
		w.memo.ts = append(w.memo.ts, ts)
		return
	}
	w.kept = append(w.kept, keptVersion{kind: keptData})
	w.vers = append(w.vers, Version{TS: ts, Data: data, Live: live})
}

// takeRaw takes a retained raw page (KindDeltaRaw): kept sealed for
// resolve, or just its timestamp. An eager walk opens it at once, and the
// opened page may alias the flash page (openRetained returns its input
// when no retention key is configured), which Versions' read-only
// until-next-mutation contract covers.
func (t *TimeSSD) takeRaw(w *chainWalk, lpa uint64, ts vclock.Time, data []byte) {
	if w.mode == walkStamps {
		w.memo.ts = append(w.memo.ts, ts)
		return
	}
	w.kept = append(w.kept, keptVersion{kind: keptRaw, ref: -1})
	w.vers = append(w.vers, Version{TS: ts, Data: data})
	if w.eager {
		t.hold(w, lpa) // a raw page always opens
	}
}

// takeDelta takes one delta the walk reached and charges its decode. It
// reports false, charging nothing, when the delta does not decode, which
// ends the walk. A walk that defers cannot try the decode: it checks what
// the decode needs of the walk, the XOR reference, and trusts the payload.
// VersionAt defers only on a device whose payloads all decode: one that
// sealed them itself, with no fault plan armed. An eager walk tries it.
func (t *TimeSSD) takeDelta(w *chainWalk, lpa uint64, d *delta.Delta, at vclock.Time) (vclock.Time, bool) {
	if w.mode == walkStamps {
		w.memo.ts = append(w.memo.ts, d.TS)
		return at, true
	}
	k := keptVersion{kind: keptDelta, ref: -1, d: *d}
	if d.Enc == delta.EncXORLZF {
		if k.ref = w.refIndex(d.RefTS, t.PageSize()); k.ref < 0 {
			return at, false
		}
	}
	w.kept = append(w.kept, k)
	w.vers = append(w.vers, Version{TS: d.TS})
	if w.eager && !t.hold(w, lpa) {
		return at, false
	}
	return t.chargeDecode(d.Enc, at), true
}

// hold resolves the version an eager walk of lpa just took and holds it as
// a data page, so a later delta's reference is one copy away. When the
// version does not rebuild it is dropped and hold reports false.
func (t *TimeSSD) hold(w *chainWalk, lpa uint64) bool {
	k := len(w.vers) - 1
	data, err := t.resolve(w, lpa, k, nil)
	if err != nil {
		w.vers, w.kept = w.vers[:k], w.kept[:k]
		return false
	}
	w.vers[k].Data, w.kept[k] = data, keptVersion{kind: keptData}
	return true
}

// refIndex returns the index of the version found so far that an XOR delta
// written against refTS decodes with, or -1: the version with that
// timestamp, if it is a delta or a page long. Timestamps fall strictly
// along a walk, so it searches from the oldest version found, where the
// reference almost always is, and stops at the first newer than refTS.
func (w *chainWalk) refIndex(refTS vclock.Time, pageSize int) int {
	for i := len(w.vers) - 1; i >= 0 && w.vers[i].TS <= refTS; i-- {
		if w.vers[i].TS == refTS {
			if w.kept[i].kind == keptDelta || len(w.vers[i].Data) == pageSize {
				return i
			}
			return -1
		}
	}
	return -1
}

// resolve returns the content of w.vers[k], which a walkKeep walk of lpa
// has reached. It follows k's XOR references towards the head until a
// version needs no reference (a data page, a raw page, or a delta of
// another encoding), then rebuilds k in place: the base goes into dst once
// (copied, or decoded straight into it) and each residual down the chain
// to k is applied onto that one page (delta.DecodeOnto). dst is a page
// long, or nil for a fresh page: a copy of the base, which append does not
// zero first. A data page, or a raw page that is the target itself, is
// returned as the walk holds it. It is the only decoder of a chain walk:
// an eager walk calls it on each version it takes (one step, from the
// data page it holds for the reference), VersionAt on the one it returns.
func (t *TimeSSD) resolve(w *chainWalk, lpa uint64, k int, dst []byte) ([]byte, error) {
	need, base := w.need[:0], []byte(nil)
	for j := k; j >= 0; j = w.kept[j].ref {
		if w.kept[j].kind == keptData {
			base = w.vers[j].Data
			break
		}
		need = append(need, j)
	}
	w.need = need
	if len(need) == 0 {
		return base, nil
	}
	i := len(need) - 1
	if w.kept[need[i]].kind == keptRaw {
		base = t.openRetained(lpa, w.vers[need[i]].TS, w.vers[need[i]].Data)
		if i == 0 {
			return base, nil
		}
		i--
	}
	switch {
	case dst == nil && base != nil:
		dst = append([]byte(nil), base...)
	case dst == nil:
		dst = make([]byte, t.PageSize())
	case base != nil:
		copy(dst, base)
	}
	for ; i >= 0; i-- {
		j := need[i]
		kv, ts := &w.kept[j], w.vers[j].TS
		if err := delta.DecodeOnto(dst, kv.d.Enc, t.openRetained(lpa, ts, kv.d.Payload), &t.dec); err != nil {
			return nil, fmt.Errorf("core: lpa %d version %v does not decode: %w", lpa, ts, err)
		}
	}
	return dst, nil
}

// shadowVersionAt checks a deferred VersionAt (almanacdebug): a dry eager
// walk of lpa from at and from the channel horizons the real walk started
// on must pick the same version, byte for byte, done at the same instant.
func (t *TimeSSD) shadowVersionAt(lpa uint64, when, at vclock.Time, busy []vclock.Time, got Version, gotFound bool, gotDone vclock.Time) {
	w := chainWalk{mode: walkKeep, eager: true, busy: busy}
	done, err := t.walk(&w, lpa, at)
	invariant.AssertNoErr(err, "VersionAt shadow walk")
	var want *Version
	for i := range w.vers {
		if w.vers[i].TS <= when {
			want = &w.vers[i]
			break
		}
	}
	invariant.Assert(done == gotDone, "VersionAt(%d, %v): deferred walk done %v, eager walk %v", lpa, when, gotDone, done)
	invariant.Assert((want != nil) == gotFound, "VersionAt(%d, %v): deferred walk found %v, eager walk %v", lpa, when, gotFound, want != nil)
	if want != nil {
		invariant.Assert(want.TS == got.TS && want.Live == got.Live && bytes.Equal(want.Data, got.Data),
			"VersionAt(%d, %v): deferred walk returned ts %v live %v, eager walk ts %v live %v (bytes equal %v)",
			lpa, when, got.TS, got.Live, want.TS, want.Live, bytes.Equal(want.Data, got.Data))
	}
}

// dryRead is Read's answer and virtual timing with no side effect: nothing
// is charged, counted or observed, and the read queues on busy, a copy of
// the channel horizons, instead of on the array's own.
func (t *TimeSSD) dryRead(busy []vclock.Time, ppa flash.PPA, at vclock.Time) ([]byte, flash.OOB, vclock.Time, error) {
	if t.Arr.Dead() {
		return nil, flash.OOB{}, at, fault.ErrPowerCut
	}
	data, oob, err := t.Arr.PeekPage(ppa)
	if err != nil {
		return nil, flash.OOB{}, at, err
	}
	done := t.Arr.QueueRead(busy, t.Arr.ChannelOfBlock(t.Arr.BlockOf(ppa)), at)
	return data, oob, done, nil
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

// chargeDecode charges the firmware CPU cost of decompressing one delta
// (the source of TimeSSD's ≈14% recovery-time overhead vs FlashGuard-style
// raw retention, §5.5.1). Raw payloads cost nothing.
func (t *TimeSSD) chargeDecode(enc delta.Encoding, at vclock.Time) vclock.Time {
	if enc == delta.EncXORLZF || enc == delta.EncRawLZF {
		return at.Add(t.cfg.DeltaCost)
	}
	return at
}

// appendTimestamps appends the write timestamps of every retrievable
// version of lpa (newest first) to m.ts, and the channel of every read it
// charges to m.ch in the order it charges them, without decoding anything:
// a delta-chain hop reads its page but only one header entry. A scan that
// walks many LPAs passes one memo for all of them. lpa must be in range.
func (t *TimeSSD) appendTimestamps(m *scanMemo, lpa uint64, at vclock.Time) (vclock.Time, error) {
	w := chainWalk{mode: walkStamps, memo: m}
	return t.walk(&w, lpa, at)
}

// scanMemo records UpdatedBetween's last cold walk of the device: for every
// candidate LPA in ascending order, the timestamps the walk collected and
// the channel of every read it charged, both in walk order, plus the LPA's
// trim record. The walk's outcome is a function of the device's tables and
// flash contents alone, which only the mutators that bump TimeSSD.gen
// change; while the generation the memo was taken at is current, a query
// replays it — the same reads on the same channels from the same instant,
// so virtual time, flash counters and observations are those of the walk —
// and reads its records off the memo's time index instead of walking the
// chains again.
type scanMemo struct {
	gen   uint64        // device generation the walk ran at
	valid bool          // a complete walk, taken with no fault plan armed
	lpas  []memoLPA     // candidate LPAs, ascending
	ts    []vclock.Time // every LPA's timestamps, newest first, concatenated
	ch    []uint8       // channel of every charged read, concatenated

	// The replay's outcome from an all-idle array at time 0 (settle): a
	// replay on an idle array shifts it by its at instead of running the
	// reads again.
	settled bool
	ends    []vclock.Time    // each channel's final horizon; -1 where no read is charged
	doneOff vclock.Duration  // the completion
	lat     obs.HistSnapshot // every read's virtual latency, as Read observes it
	busy    []vclock.Time    // scratch: the horizons a replay starts from, then ends on

	// The time index (index), built by every walk: each recorded timestamp
	// and trim time with the entry it belongs to, counting-sorted into
	// buckets 1<<shift wide from base. Bucket b is idx[off[b]:off[b+1]].
	idx   []stampRef
	off   []uint32
	base  vclock.Time
	shift uint
	marks []uint64 // scratch: one bit per entry of lpas, set by records' hits; clear between queries
}

// stampsPerBucket is the mean bucket load the time index is sized for.
const stampsPerBucket = 4

// stampRef is one time-index entry: a timestamp or trim time, and the
// index in scanMemo.lpas of the entry it belongs to.
type stampRef struct {
	ts vclock.Time
	e  uint32
}

// memoLPA is one candidate LPA's entry in a scanMemo. Its runs end where
// the next LPA's begin; uint32 ends bound the memo at 2^32 retained
// versions, more than a host-memory flash arena can hold.
type memoLPA struct {
	lpa     uint64
	trim    trimRecord // lpa's trim record when the walk ran
	tsEnd   uint32     // end of lpa's run in scanMemo.ts
	readEnd uint32     // end of lpa's run in scanMemo.ch
}

// settle computes the replay's outcome from an all-idle array at time 0.
// A replay that finds every channel idle by its at ends exactly so,
// shifted by at, since every read it issues is at or after at. It runs the
// replay dry on ends, each horizon first set to -1, which marks a channel
// no read touches and is idle before any read can start.
func (m *scanMemo) settle(arr *flash.Array) {
	m.ends = m.ends[:0]
	for range arr.Config().Channels {
		m.ends = append(m.ends, -1)
	}
	m.lat = obs.HistSnapshot{}
	m.doneOff = m.replayDry(arr, m.ends, 0, &m.lat).Sub(0)
	m.settled = true
}

// replayDry charges the memo's reads as walkAll charged them, each LPA's
// reads in order from at, to busy, a set of channel horizons, instead of to
// the array (flash.Array.QueueRead), and each read's virtual latency to
// lat. It returns the completion.
func (m *scanMemo) replayDry(arr *flash.Array, busy []vclock.Time, at vclock.Time, lat *obs.HistSnapshot) vclock.Time {
	done, r := at, uint32(0)
	for _, e := range m.lpas {
		end := at
		for ; r < e.readEnd; r++ {
			next := arr.QueueRead(busy, int(m.ch[r]), end)
			lat.Observe(int64(next.Sub(end)))
			end = next
		}
		done = max(done, end)
	}
	return done
}

// read records a charged read of ppa.
func (m *scanMemo) read(arr *flash.Array, ppa flash.PPA) {
	m.ch = append(m.ch, uint8(arr.ChannelOfBlock(arr.BlockOf(ppa))))
}

// scanCurrent reports whether the scan memo describes the device as it is now.
func (t *TimeSSD) scanCurrent() bool {
	return t.scan.valid && t.scan.gen == t.gen
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

// candidateLPAs returns every LPA that currently has retrievable state, in
// ascending order.
func (t *TimeSSD) candidateLPAs() []uint64 {
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
// of the slowest channel. When nothing has mutated the device since the
// last scan, the scan is replayed from its memo (scanMemo): the same reads
// are charged, and no chain is walked on the host. The scan allocates only
// what it returns: the record slice and one array that every record's
// Times is a capacity-limited window of.
func (t *TimeSSD) UpdatedBetween(from, to vclock.Time, at vclock.Time) ([]UpdateRecord, vclock.Time, error) {
	var done vclock.Time
	var err error
	if t.scanCurrent() {
		done = t.replayScan(at)
	} else {
		done, err = t.walkAll(at)
	}
	recs := t.scan.records(from, to)
	if invariant.Enabled {
		t.scan.shadowRecords(from, to, recs)
	}
	return recs, done, err
}

// walkAll is the cold scan: it walks every candidate LPA's chains from at,
// charging every read, and records the walk in t.scan, time index
// included. A read error stops it with the LPAs walked so far recorded and
// indexed and the memo invalid.
func (t *TimeSSD) walkAll(at vclock.Time) (vclock.Time, error) {
	m := &t.scan
	m.valid, m.settled = false, false
	m.lpas, m.ts, m.ch = m.lpas[:0], m.ts[:0], m.ch[:0]
	done := at
	for lpa := uint64(0); lpa < uint64(t.LogicalPages()); lpa++ {
		if !t.hasHistory(lpa) {
			continue
		}
		d, err := t.appendTimestamps(m, lpa, at)
		if err != nil {
			m.index()
			return done, err
		}
		done = max(done, d)
		m.lpas = append(m.lpas, memoLPA{lpa: lpa, trim: t.trimmed[lpa], tsEnd: uint32(len(m.ts)), readEnd: uint32(len(m.ch))})
	}
	m.index()
	m.gen, m.valid = t.gen, !t.faultsArmed
	return done, nil
}

// replayScan charges the memo's reads as walkAll charged them: each LPA's
// reads in order on their channels, every LPA starting at at. It works
// out where the reads leave the channel horizons on a copy of them, then
// applies that outcome to the array in one step. On an array whose
// channels are all idle by at, no horizon can delay any read, so the
// outcome is the memo's idle-start one (settle) shifted by at; otherwise
// the reads are run dry from the live horizons, because then each read's
// latency depends on the horizons it meets.
func (t *TimeSSD) replayScan(at vclock.Time) vclock.Time {
	m := &t.scan
	m.busy = t.Arr.Horizons(m.busy[:0])
	var lat obs.HistSnapshot
	var done vclock.Time
	if slices.Max(m.busy) > at {
		done = m.replayDry(t.Arr, m.busy, at, &lat)
	} else {
		if !m.settled {
			m.settle(t.Arr)
		}
		for ch, end := range m.ends {
			if end >= 0 {
				m.busy[ch] = at.Add(end.Sub(0))
			}
		}
		lat, done = m.lat, at.Add(m.doneOff)
		if invariant.Enabled {
			t.shadowQuietReplay(at, done)
		}
	}
	t.Arr.ChargeReads(m.busy, &lat)
	return done
}

// shadowQuietReplay checks a replay on an idle array (almanacdebug) before
// it is applied: the memo's reads run dry one by one from at and from the
// horizons the array holds must end on the horizons the replay is about
// to apply (t.scan.busy), complete at done and see the same latencies.
func (t *TimeSSD) shadowQuietReplay(at, done vclock.Time) {
	m := &t.scan
	busy := t.Arr.Horizons(nil)
	var lat obs.HistSnapshot
	want := m.replayDry(t.Arr, busy, at, &lat)
	invariant.Assert(slices.Equal(busy, m.busy), "quiet replay at %v: horizons (ns) %d, read by read %d", at, m.busy, busy)
	invariant.Assert(done == want, "quiet replay at %v: done %v, read by read %v", at, done, want)
	invariant.Assert(lat == m.lat, "quiet replay at %v: latencies %+v, read by read %+v", at, m.lat, lat)
}

// index builds the memo's time index over its entries' runs and trim
// times: a counting sort into buckets of the narrowest power-of-two width
// that leaves about stampsPerBucket stamps per bucket over [oldest,
// newest]. A run descends, so its ends bound it and the extremes cost one
// look per entry; counting and placing are one pass each over the stamps.
// A bucket's offset starts at its end (the prefix sum of the counts) and
// moves down as its stamps are placed, ending at its start.
func (m *scanMemo) index() {
	n, lo, hi := 0, maxTime, vclock.Time(math.MinInt64)
	start := uint32(0)
	for _, e := range m.lpas {
		if e.tsEnd > start {
			lo, hi = min(lo, m.ts[e.tsEnd-1]), max(hi, m.ts[start])
			n += int(e.tsEnd - start)
		}
		if e.trim.head != flash.NullPPA {
			lo, hi = min(lo, e.trim.ts), max(hi, e.trim.ts)
			n++
		}
		start = e.tsEnd
	}
	m.idx, m.off = m.idx[:0], m.off[:0]
	if n == 0 {
		return
	}
	span, want := uint64(hi)-uint64(lo), uint64(max(1, n/stampsPerBucket))
	shift := uint(0)
	for span>>shift >= want {
		shift++
	}
	m.base, m.shift = lo, shift
	off := slices.Grow(m.off, int(span>>shift)+2)[:span>>shift+2]
	clear(off)
	for _, ts := range m.ts[:start] {
		off[bucketOf(ts, lo, shift)]++
	}
	for _, e := range m.lpas {
		if e.trim.head != flash.NullPPA {
			off[bucketOf(e.trim.ts, lo, shift)]++
		}
	}
	sum := uint32(0)
	for b, c := range off {
		sum += c
		off[b] = sum
	}
	idx := slices.Grow(m.idx, n)[:n]
	start = 0
	for i, e := range m.lpas {
		for _, ts := range m.ts[start:e.tsEnd] {
			b := bucketOf(ts, lo, shift)
			off[b]--
			idx[off[b]] = stampRef{ts, uint32(i)}
		}
		if e.trim.head != flash.NullPPA {
			b := bucketOf(e.trim.ts, lo, shift)
			off[b]--
			idx[off[b]] = stampRef{e.trim.ts, uint32(i)}
		}
		start = e.tsEnd
	}
	m.idx, m.off = idx, off
}

// bucketOf is the index of ts's bucket in a time index whose buckets are
// 1<<shift wide from base; ts must be at or after base.
func bucketOf(ts, base vclock.Time, shift uint) uint64 {
	return (uint64(ts) - uint64(base)) >> shift
}

// records returns the memo's update records in [from, to], in ascending
// LPA order. Only the index buckets [from, to] covers are scanned: each
// stamp in the range marks its entry, and a sweep of the marks emits each
// marked entry's record. The records share one Times array, each a
// capacity-limited window of it, so appending to one cannot reach the next.
func (m *scanMemo) records(from, to vclock.Time) []UpdateRecord {
	if len(m.off) == 0 || to < from || to < m.base {
		return nil
	}
	last := uint64(len(m.off) - 2) // the newest bucket
	b0, b1 := uint64(0), min(bucketOf(to, m.base, m.shift), last)
	if from > m.base {
		b0 = min(bucketOf(from, m.base, m.shift), last+1)
	}
	if words := (len(m.lpas) + 63) / 64; len(m.marks) < words {
		m.marks = make([]uint64, words)
	}
	times, first, end := 0, uint32(len(m.lpas)), uint32(0)
	for _, r := range m.idx[m.off[b0]:m.off[b1+1]] {
		if r.ts < from || r.ts > to {
			continue
		}
		times++
		m.marks[r.e/64] |= 1 << (r.e % 64)
		first, end = min(first, r.e), max(end, r.e+1)
	}
	if times == 0 {
		return nil
	}
	marks := m.marks[first/64 : (end+63)/64]
	recs := 0
	for _, word := range marks {
		recs += bits.OnesCount64(word)
	}
	out := make([]UpdateRecord, recs)
	back := make([]vclock.Time, 0, times)
	i := 0
	for w, word := range marks {
		marks[w] = 0
		for ; word != 0; word &= word - 1 {
			e := (int(first/64)+w)*64 + bits.TrailingZeros64(word)
			n := len(back)
			back = m.appendHits(back, e, from, to)
			out[i] = UpdateRecord{LPA: m.lpas[e].lpa, Times: back[n:len(back):len(back)]}
			i++
		}
	}
	return out
}

// appendHits appends entry e's times in [from, to] to dst as its record
// lists them: the trim time first, when the deletion falls in the range (a
// deletion is an update of the LPA's state though it created no version),
// then the run's timestamps in the range, newest first. The run descends,
// so those are one stretch of it, which ends at the first stamp before
// from and starts after the stamps above to.
func (m *scanMemo) appendHits(dst []vclock.Time, e int, from, to vclock.Time) []vclock.Time {
	if rec := m.lpas[e].trim; rec.head != flash.NullPPA && rec.ts >= from && rec.ts <= to {
		dst = append(dst, rec.ts)
	}
	run := m.run(e)
	lo, hi := 0, 0
	for hi < len(run) && run[hi] >= from {
		if run[hi] > to {
			lo++
		}
		hi++
	}
	return append(dst, run[lo:hi]...)
}

// run is entry e's timestamps, newest first.
func (m *scanMemo) run(e int) []vclock.Time {
	start := uint32(0)
	if e > 0 {
		start = m.lpas[e-1].tsEnd
	}
	return m.ts[start:m.lpas[e].tsEnd]
}

// filterRecords is records by the full scan the time index replaces: every
// entry's run and trim time tested against [from, to], sharing no code with
// the index. It is the reference that shadowRecords and the tests check
// records against.
func (m *scanMemo) filterRecords(from, to vclock.Time) []UpdateRecord {
	var out []UpdateRecord
	start := uint32(0)
	for _, e := range m.lpas {
		ts := m.ts[start:e.tsEnd]
		start = e.tsEnd
		// ts descends strictly, so the versions inside [from, to] are one
		// run.
		lo := 0
		for lo < len(ts) && ts[lo] > to {
			lo++
		}
		hi := lo
		for hi < len(ts) && ts[hi] >= from {
			hi++
		}
		// A deletion inside the range is an update of this LPA's state even
		// though it created no new version.
		rec := e.trim
		trimHit := rec.head != flash.NullPPA && rec.ts >= from && rec.ts <= to
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
		out = append(out, UpdateRecord{LPA: e.lpa, Times: hit})
	}
	return out
}

// shadowRecords checks the time index's answer (almanacdebug): records
// must equal filterRecords' full scan of the memo, record by record.
func (m *scanMemo) shadowRecords(from, to vclock.Time, got []UpdateRecord) {
	want := m.filterRecords(from, to)
	invariant.Assert(slices.EqualFunc(got, want, func(a, b UpdateRecord) bool {
		return a.LPA == b.LPA && slices.Equal(a.Times, b.Times)
	}), "time index over [%v, %v]: records %v, full scan %v", from, to, got, want)
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
	v, found, done, err := t.versionAt(lpa, when, at, t.rollBackPage())
	if err != nil {
		return done, err
	}
	at = done
	if !found {
		return t.Trim(lpa, at)
	}
	if v.Live {
		return at, nil // already at the requested state
	}
	return t.writeBack(lpa, v.Data, at)
}

// rollBackPage returns the device's write-back page, allocated on first
// use: rollbacks rebuild a version into it and write it from there.
func (t *TimeSSD) rollBackPage() []byte {
	if t.rbPage == nil {
		t.rbPage = make([]byte, t.PageSize())
	}
	return t.rbPage
}

// writeBack writes data, a retained version of lpa, back as its newest
// version from the write-back page. versionAt decoded a delta's version
// into that page already; any other content may alias flash, which the
// write's own GC could reclaim mid-operation, so it is copied in first.
// Write keeps nothing of its input (the program copies it into the
// array), so one page serves every rollback.
func (t *TimeSSD) writeBack(lpa uint64, data []byte, at vclock.Time) (vclock.Time, error) {
	page := t.rollBackPage()
	if &data[0] != &page[0] {
		copy(page, data)
	}
	return t.Write(lpa, page, at)
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
	// A snapshot taken before the first write: a rollback's trims and GC
	// can change which LPAs have history mid-loop.
	for _, lpa := range t.candidateLPAs() {
		v, found, done, err := t.versionAt(lpa, when, at, t.rollBackPage())
		if err != nil {
			return changed, done, err
		}
		at = done
		if !found {
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
		if at, err = t.writeBack(lpa, v.Data, at); err != nil {
			return changed, at, err
		}
		changed++
	}
	return changed, at, nil
}
