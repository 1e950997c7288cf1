package main

import (
	"bytes"
	"time"

	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/timekits"
	"almanac/internal/vclock"
)

const (
	ttSpan     = 4                        // LPAs per address query
	ttWriteGap = vclock.Millisecond       // between the writes of one history round
	ttRoundGap = vclock.Minute            // between round starts; the rest of it is announced idle
	ttRange    = 100 * vclock.Millisecond // TimeQueryRange window
	rbExtent   = 32                       // LPAs per RollBack call on rollback-4k
)

// history is a TimeSSD holding rounds versions of every LPA in [0, lpas),
// condensed into delta chains, plus the shadow model of what it holds:
// version k of LPA i was written at stamp(k, i) with content page(i, k).
type history struct {
	dev    *core.TimeSSD
	kit    *timekits.Kit
	c      *corpus
	lpas   int
	rounds int
	end    vclock.Time // first free virtual timestamp after set-up
}

func (h *history) stamp(round, lpa int) vclock.Time {
	return epoch.Add(vclock.Duration(round)*ttRoundGap + vclock.Duration(lpa)*ttWriteGap)
}

// roundEnd is a stamp after every write of round and before round+1.
func (h *history) roundEnd(round int) vclock.Time {
	return h.stamp(round, h.lpas).Add(vclock.Second)
}

// versionAt is the shadow model's VersionAt: the newest round whose
// write of lpa is not after t, or -1.
func (h *history) versionAt(lpa int, t vclock.Time) int {
	for k := h.rounds - 1; k >= 0; k-- {
		if h.stamp(k, lpa) <= t {
			return k
		}
	}
	return -1
}

// buildHistory is the set-up shared by timetravel-4k and rollback-4k:
// rounds × lpas writes with Idle after each round (background delta
// compression, §3.6), then FlushDeltas, so rounds×lpas retained versions
// sit in delta chains — dozens of times the 1024-slot refcache. The
// device keeps the paper's default 3-day MinRetention, so nothing in the
// history may expire and every query has one exact right answer.
func buildHistory(e *env) (*history, error) {
	fc := flash.DefaultConfig()
	fc.BlocksPerPlane = e.sz.servedBlocks
	dev, err := core.New(core.DefaultConfig(ftl.WithFlash(fc)))
	if err != nil {
		return nil, err
	}
	h := &history{dev: dev, kit: timekits.New(dev), c: newCorpus(e.seed, dev.PageSize()), lpas: e.sz.ttLPAs, rounds: e.sz.ttRounds}
	for k := 0; k < h.rounds; k++ {
		for i := 0; i < h.lpas; i++ {
			if _, err := dev.Write(uint64(i), h.c.page(uint64(i), k), h.stamp(k, i)); err != nil {
				return nil, err
			}
		}
		dev.Idle(h.roundEnd(k), h.stamp(k+1, 0))
	}
	if h.end, err = dev.FlushDeltas(h.stamp(h.rounds, 0)); err != nil {
		return nil, err
	}
	return h, nil
}

// finish fills the device-side fields of a repetition's result.
func (h *history) finish(r *repResult, at vclock.Time) {
	r.virtEnd = at
	r.total = h.dev.Counters()
	r.windowStart = h.dev.RetentionWindowStart()
}

// checkVersions compares one LPA's query answer with the shadow model:
// want lists the expected rounds, newest first.
func (h *history) checkVersions(pv timekits.PageVersions, lpa int, want []int) bool {
	if pv.LPA != uint64(lpa) || len(pv.Versions) != len(want) {
		return false
	}
	for j, k := range want {
		v := pv.Versions[j]
		if v.TS != h.stamp(k, lpa) || !bytes.Equal(v.Data, h.c.page(uint64(lpa), k)) {
			return false
		}
	}
	return true
}

// runTimeTravel is one repetition of timetravel-4k. Per four queries:
// two AddrQueryAll(addr,4), one AddrQuery(addr,4,t), one TimeQueryRange
// over 100 ms. Addresses are Zipf over the 4-page groups, so a hot head
// of chains stays in the refcache and the tail does not.
func runTimeTravel(e *env) (*repResult, error) {
	t0 := time.Now()
	h, err := buildHistory(e)
	if err != nil {
		return nil, err
	}
	groups := uint64(h.lpas / ttSpan)
	rg := newRNG(e.seed, "timetravel")
	z := newZipf(int(groups), 1.1)
	sc := newScatter(groups)
	all := make([]int, h.rounds) // every round, newest first
	for j := range all {
		all[j] = h.rounds - 1 - j
	}
	n := e.scaled(e.sz.ttQueries, 4)
	r := &repResult{setupNS: time.Since(t0).Nanoseconds(), attempted: n, latNS: make([]int64, 0, n)}
	before := h.dev.Counters()
	names := [4]string{"AddrQueryAll", "AddrQueryAll", "AddrQuery", "TimeQueryRange"}
	var versionsSeen, addrQueries int64

	at := h.end
	w := startWatch()
	for q := 0; q < n; q++ {
		addr := int(sc.at(z.draw(rg))) * ttSpan
		// A moment inside the written history (uniform over all of it).
		t := epoch.Add(vclock.Duration(rg.intn(uint64(h.stamp(h.rounds-1, h.lpas).Sub(epoch)))))
		sp := -1
		if e.tr != nil {
			sp = e.tr.begin(names[q%4], e.parent, uint64(q))
		}
		start := time.Now()
		ok := true
		var elapsed vclock.Duration
		switch q % 4 {
		case 0, 1:
			res, err := h.kit.AddrQueryAll(uint64(addr), ttSpan, at)
			ok, elapsed = err == nil && len(res.Value) == ttSpan, res.Elapsed
			for i := 0; ok && i < ttSpan; i++ {
				ok = h.checkVersions(res.Value[i], addr+i, all)
				versionsSeen += int64(len(res.Value[i].Versions))
			}
			addrQueries++
		case 2:
			res, err := h.kit.AddrQuery(uint64(addr), ttSpan, t, at)
			ok, elapsed = err == nil && len(res.Value) == ttSpan, res.Elapsed
			for i := 0; ok && i < ttSpan; i++ {
				var want []int
				if k := h.versionAt(addr+i, t); k >= 0 {
					want = []int{k}
				}
				ok = h.checkVersions(res.Value[i], addr+i, want)
				versionsSeen += int64(len(res.Value[i].Versions))
			}
			addrQueries++
		default:
			// Inside one round's write burst, so the answer is the run of
			// LPAs written in [t1, t1+100 ms], one timestamp each.
			k := int(rg.intn(uint64(h.rounds)))
			t1 := h.stamp(k, 0).Add(vclock.Duration(rg.intn(uint64(vclock.Duration(h.lpas) * ttWriteGap))))
			res, err := h.kit.TimeQueryRange(t1, t1.Add(ttRange), at)
			ok, elapsed = err == nil, res.Elapsed
			lo := int((t1.Sub(h.stamp(k, 0)) + ttWriteGap - 1) / ttWriteGap)
			hi := int(t1.Add(ttRange).Sub(h.stamp(k, 0)) / ttWriteGap)
			if hi >= h.lpas {
				hi = h.lpas - 1
			}
			ok = ok && len(res.Value) == hi-lo+1
			for i := 0; ok && i < len(res.Value); i++ {
				rec := res.Value[i]
				ok = rec.LPA == uint64(lo+i) && len(rec.Times) == 1 && rec.Times[0] == h.stamp(k, lo+i)
			}
		}
		r.latNS = append(r.latNS, time.Since(start).Nanoseconds())
		if sp >= 0 {
			e.tr.end(sp)
		}
		r.sampleRetention(at, h.dev.RetentionWindowStart())
		if !ok {
			r.failed++
			continue
		}
		r.virtRespNS += int64(elapsed)
		r.virtOps++
		at = at.Add(elapsed)
	}
	w.stop(r)

	h.finish(r, at)
	r.timed = subCounters(r.total, before)
	r.layer = map[string]float64{
		"timekits.versions_per_query": ratio(versionsSeen, addrQueries),
		"timekits.virt_query_ms":      ratio(r.virtRespNS, r.virtOps) / 1e6,
	}
	if e.tr != nil {
		for _, kv := range [][2]string{{"AddrQueryAll", "timekits.addrqueryall_p50_us"}, {"AddrQuery", "timekits.addrquery_p50_us"}, {"TimeQueryRange", "timekits.timequeryrange_p50_us"}} {
			r.layer[kv[1]] = e.tr.p50us(kv[0], e.parent)
		}
	}
	return r, nil
}

// rollbackTarget is the round pass p rolls back to: back one round at a
// time from the newest, then ping-ponging between the middle and the
// oldest round for as many passes as the size asks for.
func rollbackTarget(p, rounds int) int {
	if k := rounds - 2 - p; k >= 0 {
		return k
	}
	if (p-(rounds-1))%2 == 0 {
		return rounds / 2
	}
	return 0
}

// runRollback is one repetition of rollback-4k: whole-range rollbacks in
// rbExtent-page RollBack calls, each pass followed by a full read-back
// against the shadow model.
func runRollback(e *env) (*repResult, error) {
	t0 := time.Now()
	h, err := buildHistory(e)
	if err != nil {
		return nil, err
	}
	passes := e.scaled(e.sz.rbPasses, 1)
	r := &repResult{setupNS: time.Since(t0).Nanoseconds(), attempted: passes * h.lpas, latNS: make([]int64, 0, passes*h.lpas/rbExtent)}
	before := h.dev.Counters()

	at := h.end
	w := startWatch()
	for p := 0; p < passes; p++ {
		k := rollbackTarget(p, h.rounds)
		for addr := 0; addr < h.lpas; addr += rbExtent {
			sp := -1
			if e.tr != nil {
				sp = e.tr.begin("RollBack", e.parent, uint64(p*h.lpas+addr))
			}
			start := time.Now()
			res, err := h.kit.RollBack(uint64(addr), rbExtent, h.roundEnd(k), at)
			r.latNS = append(r.latNS, time.Since(start).Nanoseconds())
			if sp >= 0 {
				e.tr.end(sp)
			}
			r.sampleRetention(at, h.dev.RetentionWindowStart())
			if err != nil || res.Value != rbExtent {
				r.failed += rbExtent
				continue
			}
			r.virtRespNS += int64(res.Elapsed)
			r.virtOps += rbExtent
			at = res.Done
		}
		for i := 0; i < h.lpas; i++ {
			data, done, err := h.dev.Read(uint64(i), at)
			if err != nil || !bytes.Equal(data, h.c.page(uint64(i), k)) {
				r.failed++
			}
			if err == nil {
				at = done
			}
		}
	}
	w.stop(r)

	if r.failed > r.attempted {
		r.failed = r.attempted
	}
	h.finish(r, at)
	r.timed = subCounters(r.total, before)
	r.layer = map[string]float64{}
	if e.tr != nil {
		r.layer["timekits.rollback_us_per_page"] = e.tr.p50us("RollBack", e.parent) / rbExtent
	}
	return r, nil
}
