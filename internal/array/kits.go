package array

import (
	"fmt"
	"sort"

	"almanac/internal/core"
	"almanac/internal/timekits"
	"almanac/internal/vclock"
)

// Array-wide TimeKits: the Table-1 API fanned out across shards. Because
// every version carries its host-issue timestamp and all shards share the
// host's clock, a single virtual timestamp names a consistent cross-shard
// point in time — AddrQuery(t) and RollBackAll(t) observe/restore exactly
// the state the whole array had at t, regardless of how far each shard's
// internal timeline has advanced.
//
// Fan-out calls run concurrently (one command per shard worker); the
// virtual completion time of an array call is the completion of the
// slowest shard, mirroring how a single device's query completes with its
// slowest channel.

// localRange maps the global LPA range [addr, addr+cnt) onto shard s:
// the matching shard-local LPAs are contiguous. ok is false when the
// range does not touch the shard.
func (a *Array) localRange(addr uint64, cnt int, s int) (lo uint64, n int, ok bool) {
	N := uint64(len(a.shards))
	first := addr + ((uint64(s) + N - addr%N) % N) // smallest g ≥ addr with g ≡ s (mod N)
	end := addr + uint64(cnt)
	if first >= end {
		return 0, 0, false
	}
	return first / N, int((end-1-first)/N) + 1, true
}

func (a *Array) checkRange(addr uint64, cnt int) error {
	logical := uint64(a.logical)
	if cnt < 1 || uint64(cnt) > logical || addr > logical-uint64(cnt) {
		return fmt.Errorf("%w: addr %d cnt %d (array has %d pages)", timekits.ErrBadRange, addr, cnt, logical)
	}
	return nil
}

// addrFan fans a per-shard address query over the global range and
// reassembles the results in ascending global LPA order.
func (a *Array) addrFan(addr uint64, cnt int, at vclock.Time,
	fn func(kit *timekits.Kit, lo uint64, n int) (timekits.Result[[]timekits.PageVersions], error),
) (timekits.Result[[]timekits.PageVersions], error) {
	var zero timekits.Result[[]timekits.PageVersions]
	if err := a.checkRange(addr, cnt); err != nil {
		return zero, err
	}
	res := make([]timekits.Result[[]timekits.PageVersions], len(a.shards))
	errs := make([]error, len(a.shards))
	if err := a.fanOut(at, func(i int, _ *core.TimeSSD, kit *timekits.Kit) {
		lo, n, ok := a.localRange(addr, cnt, i)
		if !ok {
			return
		}
		res[i], errs[i] = fn(kit, lo, n)
		ownVersions(res[i].Value)
	}); err != nil {
		return zero, err
	}
	out := make([]timekits.PageVersions, 0, cnt)
	done := at
	for i := range a.shards {
		if errs[i] != nil {
			return zero, fmt.Errorf("array: shard %d: %w", i, errs[i])
		}
		if res[i].Done > done {
			done = res[i].Done
		}
		for _, pv := range res[i].Value {
			pv.LPA = a.GlobalLPA(i, pv.LPA)
			out = append(out, pv)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LPA < out[j].LPA })
	return timekits.Result[[]timekits.PageVersions]{Value: out, Start: at, Done: done, Elapsed: done.Sub(at)}, nil
}

// ownVersions replaces every Version.Data, which the device may return as an
// alias of its flash arena, with a copy in one buffer the result owns. It runs on the shard worker, before the worker's next command
// can re-program the pages the aliases point into (the query twin of the
// copy shard.exec makes for reads).
func ownVersions(pvs []timekits.PageVersions) {
	total := 0
	for _, pv := range pvs {
		for _, v := range pv.Versions {
			total += len(v.Data)
		}
	}
	buf := make([]byte, 0, total)
	for _, pv := range pvs {
		for i := range pv.Versions {
			v := &pv.Versions[i]
			buf = append(buf, v.Data...)
			v.Data = buf[len(buf)-len(v.Data) : len(buf) : len(buf)]
		}
	}
}

// AddrQuery returns, for cnt global LPAs starting at addr, the version
// current at time t.
func (a *Array) AddrQuery(addr uint64, cnt int, t, at vclock.Time) (timekits.Result[[]timekits.PageVersions], error) {
	return a.addrFan(addr, cnt, at, func(kit *timekits.Kit, lo uint64, n int) (timekits.Result[[]timekits.PageVersions], error) {
		return kit.AddrQuery(lo, n, t, at)
	})
}

// AddrQueryRange returns all versions written within [t1, t2].
func (a *Array) AddrQueryRange(addr uint64, cnt int, t1, t2, at vclock.Time) (timekits.Result[[]timekits.PageVersions], error) {
	if t2 < t1 {
		return timekits.Result[[]timekits.PageVersions]{}, fmt.Errorf("%w: t2 %v before t1 %v", timekits.ErrBadRange, t2, t1)
	}
	return a.addrFan(addr, cnt, at, func(kit *timekits.Kit, lo uint64, n int) (timekits.Result[[]timekits.PageVersions], error) {
		return kit.AddrQueryRange(lo, n, t1, t2, at)
	})
}

// AddrQueryAll returns every retained version for the global range.
func (a *Array) AddrQueryAll(addr uint64, cnt int, at vclock.Time) (timekits.Result[[]timekits.PageVersions], error) {
	return a.addrFan(addr, cnt, at, func(kit *timekits.Kit, lo uint64, n int) (timekits.Result[[]timekits.PageVersions], error) {
		return kit.AddrQueryAll(lo, n, at)
	})
}

// timeFan fans a time query to every shard and merges the per-shard update
// records in ascending global LPA order — the order timekits returns them
// in on one device, so a 1-shard array answers byte for byte as the bare
// device does.
func (a *Array) timeFan(at vclock.Time,
	fn func(kit *timekits.Kit) (timekits.Result[[]core.UpdateRecord], error),
) (timekits.Result[[]core.UpdateRecord], error) {
	var zero timekits.Result[[]core.UpdateRecord]
	res := make([]timekits.Result[[]core.UpdateRecord], len(a.shards))
	errs := make([]error, len(a.shards))
	if err := a.fanOut(at, func(i int, _ *core.TimeSSD, kit *timekits.Kit) {
		res[i], errs[i] = fn(kit)
	}); err != nil {
		return zero, err
	}
	var out []core.UpdateRecord
	done := at
	for i := range a.shards {
		if errs[i] != nil {
			return zero, fmt.Errorf("array: shard %d: %w", i, errs[i])
		}
		if res[i].Done > done {
			done = res[i].Done
		}
		for _, r := range res[i].Value {
			r.LPA = a.GlobalLPA(i, r.LPA)
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LPA < out[j].LPA })
	return timekits.Result[[]core.UpdateRecord]{Value: out, Start: at, Done: done, Elapsed: done.Sub(at)}, nil
}

// TimeQuery returns every global LPA updated since time t.
func (a *Array) TimeQuery(t, at vclock.Time) (timekits.Result[[]core.UpdateRecord], error) {
	return a.timeFan(at, func(kit *timekits.Kit) (timekits.Result[[]core.UpdateRecord], error) {
		return kit.TimeQuery(t, at)
	})
}

// TimeQueryRange returns every global LPA updated within [t1, t2], merged
// across shards in ascending LPA order.
func (a *Array) TimeQueryRange(t1, t2, at vclock.Time) (timekits.Result[[]core.UpdateRecord], error) {
	if t2 < t1 {
		return timekits.Result[[]core.UpdateRecord]{}, fmt.Errorf("%w: t2 %v before t1 %v", timekits.ErrBadRange, t2, t1)
	}
	return a.timeFan(at, func(kit *timekits.Kit) (timekits.Result[[]core.UpdateRecord], error) {
		return kit.TimeQueryRange(t1, t2, at)
	})
}

// TimeQueryAll returns the update history of the array-wide retention
// window (the intersection of the per-shard windows).
func (a *Array) TimeQueryAll(at vclock.Time) (timekits.Result[[]core.UpdateRecord], error) {
	from := a.RetentionWindowStart()
	return a.timeFan(at, func(kit *timekits.Kit) (timekits.Result[[]core.UpdateRecord], error) {
		return kit.TimeQuery(from, at)
	})
}

// RollBack reverts cnt global LPAs starting at addr to their state at
// time t, each shard reverting its stripe concurrently.
func (a *Array) RollBack(addr uint64, cnt int, t, at vclock.Time) (timekits.Result[int], error) {
	var zero timekits.Result[int]
	if err := a.checkRange(addr, cnt); err != nil {
		return zero, err
	}
	res := make([]timekits.Result[int], len(a.shards))
	errs := make([]error, len(a.shards))
	if err := a.fanOut(at, func(i int, _ *core.TimeSSD, kit *timekits.Kit) {
		lo, n, ok := a.localRange(addr, cnt, i)
		if !ok {
			return
		}
		res[i], errs[i] = kit.RollBack(lo, n, t, at)
	}); err != nil {
		return zero, err
	}
	return a.sumResults(res, errs, at)
}

// RollBackAll reverts every global LPA with retrievable state to time t —
// the whole array travels to one shared instant. Shards roll back
// concurrently; the result counts pages changed array-wide.
func (a *Array) RollBackAll(t, at vclock.Time) (timekits.Result[int], error) {
	res := make([]timekits.Result[int], len(a.shards))
	errs := make([]error, len(a.shards))
	if err := a.fanOut(at, func(i int, _ *core.TimeSSD, kit *timekits.Kit) {
		res[i], errs[i] = kit.RollBackAll(t, at)
	}); err != nil {
		return timekits.Result[int]{}, err
	}
	return a.sumResults(res, errs, at)
}

// RollBackParallel reverts an explicit set of global LPAs to time t. The
// shards are the parallelism: each reverts its share of the set; threads
// is the per-shard host thread count forwarded to the member kit.
func (a *Array) RollBackParallel(lpas []uint64, threads int, t, at vclock.Time) (timekits.Result[int], error) {
	var zero timekits.Result[int]
	if threads < 1 {
		return zero, fmt.Errorf("%w: threads %d", timekits.ErrBadRange, threads)
	}
	for _, lpa := range lpas {
		if err := a.checkLPA(lpa); err != nil {
			return zero, err
		}
	}
	byShard := make([][]uint64, len(a.shards))
	for _, lpa := range lpas {
		s, local := a.Locate(lpa)
		byShard[s] = append(byShard[s], local)
	}
	res := make([]timekits.Result[int], len(a.shards))
	errs := make([]error, len(a.shards))
	if err := a.fanOut(at, func(i int, _ *core.TimeSSD, kit *timekits.Kit) {
		if len(byShard[i]) == 0 {
			return
		}
		res[i], errs[i] = kit.RollBackParallel(byShard[i], threads, t, at)
	}); err != nil {
		return zero, err
	}
	return a.sumResults(res, errs, at)
}

func (a *Array) sumResults(res []timekits.Result[int], errs []error, at vclock.Time) (timekits.Result[int], error) {
	changed := 0
	done := at
	for i := range res {
		if errs[i] != nil {
			return timekits.Result[int]{}, fmt.Errorf("array: shard %d: %w", i, errs[i])
		}
		changed += res[i].Value
		if res[i].Done > done {
			done = res[i].Done
		}
	}
	return timekits.Result[int]{Value: changed, Start: at, Done: done, Elapsed: done.Sub(at)}, nil
}
