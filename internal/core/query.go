package core

import (
	"bytes"
	"fmt"
	"math"
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
//
// Returned Version.Data slices are read-only views that may alias device
// storage — the same contract as Read — and stay valid until the next
// mutating operation (Write, Trim, RollBack, Idle) on the device, and never
// once the device is unreachable; copy to retain content past either.
func (t *TimeSSD) Versions(lpa uint64, at vclock.Time) ([]Version, vclock.Time, error) {
	if err := t.CheckLPA(lpa); err != nil {
		return nil, at, err
	}
	w := chainWalk{mode: walkDecode, vers: make([]Version, 0, 8)}
	done, err := t.walk(&w, lpa, at)
	if err != nil {
		return nil, at, err
	}
	return w.vers, done, nil
}

// VersionAt returns the version of lpa that was current at time `when`
// (the newest version with TS ≤ when), or nil if the page had no content
// at that time. It reads and charges exactly what Versions does, decode
// costs included, but keeps every delta encoded while it walks and then
// decodes only the version it returns and the XOR references that version
// needs (resolve): the versions older than it, most of a long chain, are
// never decompressed. While a fault plan is armed it decodes as it walks,
// as Versions does, because a silent bit flip can make a decode fail, and
// a failed decode ends the walk. Returned Data follows Versions' contract.
func (t *TimeSSD) VersionAt(lpa uint64, when, at vclock.Time) (*Version, vclock.Time, error) {
	if err := t.CheckLPA(lpa); err != nil {
		return nil, at, err
	}
	w := &t.atWalk
	w.mode, w.vers, w.kept = walkDefer, w.vers[:0], w.kept[:0]
	if t.faultsArmed || t.eagerVersionAt {
		w.mode = walkDecode
	}
	var busy []vclock.Time
	if invariant.Enabled && w.mode == walkDefer {
		busy = t.Arr.Horizons(nil)
	}
	done, err := t.walk(w, lpa, at)
	if err != nil {
		return nil, at, err
	}
	var v *Version
	for i := range w.vers {
		if w.vers[i].TS <= when {
			v = &Version{TS: w.vers[i].TS, Data: w.vers[i].Data, Live: w.vers[i].Live}
			if w.mode == walkDefer {
				if v.Data, err = t.resolve(w, lpa, i); err != nil {
					return nil, done, err
				}
			}
			break
		}
	}
	if invariant.Enabled && w.mode == walkDefer {
		t.shadowVersionAt(lpa, when, at, busy, v, done)
	}
	return v, done, nil
}

// walkMode is what a chain walk keeps of each version it reaches.
type walkMode uint8

const (
	// walkDecode decodes every delta as the walk reaches it (Versions).
	walkDecode walkMode = iota
	// walkDefer charges every decode where walkDecode would but keeps the
	// deltas encoded, for resolve to decode the one VersionAt returns.
	walkDefer
	// walkStamps keeps each version's write timestamp and the channel of
	// every read in a scanMemo. It decodes nothing and charges no decode.
	walkStamps
)

// chainWalk is the state of one walk of an LPA's chains (walk).
type chainWalk struct {
	mode walkMode
	vers []Version     // walkDecode, walkDefer: the versions found, newest first
	kept []keptVersion // walkDefer: how each of vers is held until resolve
	memo *scanMemo     // walkStamps: where timestamps and read channels go

	// resolve's staging, reused across calls: the versions it decodes,
	// target first, and two buffers a reference chain decodes through.
	need []int
	buf  [2][]byte

	// busy, set only by the almanacdebug shadow of VersionAt, makes the
	// walk dry: its reads charge nothing and queue on these channel
	// horizons.
	busy []vclock.Time
}

// keptVersion is how a deferred walk holds one version until resolve.
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
// walk. Each mode is charged the same reads, and walkDecode and walkDefer
// the same decodes. Only a failed read of the live head is an error;
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
		if at, ok = t.takeDelta(w, p.d, at); ok {
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
			if at, ok = t.takeDelta(w, &mine, at); !ok {
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
	switch w.mode {
	case walkStamps:
		w.memo.ts = append(w.memo.ts, ts)
		return
	case walkDefer:
		w.kept = append(w.kept, keptVersion{kind: keptData})
	}
	w.vers = append(w.vers, Version{TS: ts, Data: data, Live: live})
}

// takeRaw takes a retained raw page (KindDeltaRaw): opened now, kept
// sealed for resolve, or just its timestamp. An opened page may alias the
// flash page (openRetained returns its input when no retention key is
// configured), which Versions' read-only until-next-mutation contract
// covers.
func (t *TimeSSD) takeRaw(w *chainWalk, lpa uint64, ts vclock.Time, data []byte) {
	switch w.mode {
	case walkStamps:
		w.memo.ts = append(w.memo.ts, ts)
		return
	case walkDefer:
		w.kept = append(w.kept, keptVersion{kind: keptRaw, ref: -1})
	default:
		data = t.openRetained(lpa, ts, data)
	}
	w.vers = append(w.vers, Version{TS: ts, Data: data})
}

// takeDelta takes one delta the walk reached and charges its decode. It
// reports false, charging nothing, when the delta does not decode, which
// ends the walk. A deferred walk cannot try the decode: it checks what
// the decode needs of the walk, the XOR reference, and trusts the payload,
// which only an armed fault plan can corrupt (VersionAt).
func (t *TimeSSD) takeDelta(w *chainWalk, d *delta.Delta, at vclock.Time) (vclock.Time, bool) {
	switch w.mode {
	case walkStamps:
		w.memo.ts = append(w.memo.ts, d.TS)
		return at, true
	case walkDefer:
		k := keptVersion{kind: keptDelta, ref: -1, d: *d}
		if d.Enc == delta.EncXORLZF {
			if k.ref = w.refIndex(d.RefTS, t.PageSize()); k.ref < 0 {
				return at, false
			}
		}
		w.kept = append(w.kept, k)
		w.vers = append(w.vers, Version{TS: d.TS})
	default:
		data, err := t.decodeDelta(d, w.vers)
		if err != nil {
			return at, false
		}
		w.vers = append(w.vers, Version{TS: d.TS, Data: data})
	}
	return t.chargeDecode(d.Enc, at), true
}

// refIndex returns the index of the version found so far that an XOR delta
// written against refTS decodes with, or -1: the version decodeDelta would
// pick, if Decode would accept it as a reference.
func (w *chainWalk) refIndex(refTS vclock.Time, pageSize int) int {
	for i := range w.vers {
		if w.vers[i].TS == refTS {
			if w.kept[i].kind == keptDelta || len(w.vers[i].Data) == pageSize {
				return i
			}
			return -1
		}
	}
	return -1
}

// resolve returns the content of w.vers[k] after a deferred walk of lpa.
// It follows k's XOR references towards the head until a version needs no
// decode (a data page), then decodes back down to k, each version against
// the one before: the references through the walk's two scratch buffers,
// k into an allocation of its own. A data page is returned as it was read.
func (t *TimeSSD) resolve(w *chainWalk, lpa uint64, k int) ([]byte, error) {
	need, ref := w.need[:0], []byte(nil)
	for j := k; j >= 0; j = w.kept[j].ref {
		if w.kept[j].kind == keptData {
			ref = w.vers[j].Data
			break
		}
		need = append(need, j)
	}
	w.need = need
	for i := len(need) - 1; i >= 0; i-- {
		j := need[i]
		ts := w.vers[j].TS
		var dec []byte
		if kv := &w.kept[j]; kv.kind == keptRaw {
			dec = t.openRetained(lpa, ts, w.vers[j].Data)
		} else {
			var dst []byte
			if i == 0 {
				dst = make([]byte, 0, t.PageSize())
			} else {
				dst = w.buf[i&1][:0]
			}
			var err error
			if dec, err = delta.DecodeAppend(dst, kv.d.Enc, t.openRetained(lpa, ts, kv.d.Payload), ref, t.PageSize()); err != nil {
				return nil, fmt.Errorf("core: lpa %d version %v does not decode: %w", lpa, ts, err)
			}
			if i > 0 {
				w.buf[i&1] = dec
			}
		}
		ref = dec
	}
	return ref, nil
}

// shadowVersionAt checks a deferred VersionAt (almanacdebug): a dry decoding
// walk of lpa from at and from the channel horizons the real walk started
// on must pick the same version, byte for byte, done at the same instant.
func (t *TimeSSD) shadowVersionAt(lpa uint64, when, at vclock.Time, busy []vclock.Time, got *Version, gotDone vclock.Time) {
	w := chainWalk{mode: walkDecode, busy: busy}
	done, err := t.walk(&w, lpa, at)
	invariant.AssertNoErr(err, "VersionAt shadow walk")
	var want *Version
	for i := range w.vers {
		if w.vers[i].TS <= when {
			want = &w.vers[i]
			break
		}
	}
	invariant.Assert(done == gotDone, "VersionAt(%d, %v): deferred walk done %v, decoding walk %v", lpa, when, gotDone, done)
	invariant.Assert((want == nil) == (got == nil), "VersionAt(%d, %v): deferred walk found %v, decoding walk %v", lpa, when, got, want)
	if want != nil {
		invariant.Assert(want.TS == got.TS && want.Live == got.Live && bytes.Equal(want.Data, got.Data),
			"VersionAt(%d, %v): deferred walk returned ts %v live %v, decoding walk ts %v live %v (bytes equal %v)",
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
// and filters the recorded timestamps instead of walking the chains again.
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
// of the slowest channel. When nothing has mutated the device since the
// last scan, the scan is replayed from its memo (scanMemo): the same reads
// are charged, and no chain is walked on the host. The scan allocates only
// what it returns: one Times slice per matching record.
func (t *TimeSSD) UpdatedBetween(from, to vclock.Time, at vclock.Time) ([]UpdateRecord, vclock.Time, error) {
	if t.scanCurrent() {
		return t.scan.records(from, to), t.replayScan(at), nil
	}
	done, err := t.walkAll(at)
	return t.scan.records(from, to), done, err
}

// walkAll is the cold scan: it walks every candidate LPA's chains from at,
// charging every read, and records the walk in t.scan. A read error stops
// it with the LPAs walked so far recorded and the memo invalid.
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
			return done, err
		}
		done = max(done, d)
		m.lpas = append(m.lpas, memoLPA{lpa: lpa, trim: t.trimmed[lpa], tsEnd: uint32(len(m.ts)), readEnd: uint32(len(m.ch))})
	}
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

// records filters the memo's timestamps to [from, to].
func (m *scanMemo) records(from, to vclock.Time) []UpdateRecord {
	var out []UpdateRecord
	start := uint32(0)
	for _, e := range m.lpas {
		ts := m.ts[start:e.tsEnd]
		start = e.tsEnd
		// A deletion inside the range is an update of this LPA's state even
		// though it created no new version.
		rec := e.trim
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
		out = append(out, UpdateRecord{LPA: e.lpa, Times: hit})
	}
	return out
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
