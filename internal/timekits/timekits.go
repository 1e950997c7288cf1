// Package timekits implements TimeKits, the paper's host-side toolkit for
// exploiting TimeSSD's firmware-isolated time-travel property (§3.9).
//
// It exposes exactly the API of Table 1 — address-based state queries
// (AddrQuery, AddrQueryRange, AddrQueryAll), time-based state queries
// (TimeQuery, TimeQueryRange, TimeQueryAll) and state rollbacks (RollBack,
// RollBackAll) — plus the multi-threaded recovery driver used by the
// paper's file-revert case study (Fig. 11). In the real system these calls
// travel over vendor NVMe commands; here they call straight into the
// simulated firmware.
package timekits

import (
	"errors"
	"fmt"

	"almanac/internal/core"
	"almanac/internal/vclock"
)

// Kit wraps a TimeSSD device.
type Kit struct {
	dev *core.TimeSSD
}

// New returns a TimeKits instance bound to dev.
func New(dev *core.TimeSSD) *Kit { return &Kit{dev: dev} }

// Device returns the underlying TimeSSD.
func (k *Kit) Device() *core.TimeSSD { return k.dev }

// PageVersions is the result of an address-based query for one LPA.
type PageVersions struct {
	LPA      uint64
	Versions []core.Version // newest first
}

// Result carries a query's payload together with its virtual-time cost.
type Result[T any] struct {
	Value   T
	Start   vclock.Time
	Done    vclock.Time
	Elapsed vclock.Duration
}

func result[T any](v T, start, done vclock.Time) Result[T] {
	return Result[T]{Value: v, Start: start, Done: done, Elapsed: done.Sub(start)}
}

// ErrBadRange is returned for invalid address or time ranges.
var ErrBadRange = errors.New("timekits: invalid range")

// AddrQuery returns, for cnt LPAs starting at addr, the version that was
// current at time t — the paper's "first data version written since some
// time ago" read back in recovery scenarios. LPAs with no content at t get
// an empty version list.
func (k *Kit) AddrQuery(addr uint64, cnt int, t, at vclock.Time) (Result[[]PageVersions], error) {
	return k.addrQuery(addr, cnt, at, func(lpa uint64, when vclock.Time) ([]core.Version, vclock.Time, error) {
		v, done, err := k.dev.VersionAt(lpa, t, when)
		if err != nil || v == nil {
			return nil, done, err
		}
		return []core.Version{*v}, done, nil
	})
}

// AddrQueryRange returns all versions written within [t1, t2] for cnt LPAs
// starting at addr.
func (k *Kit) AddrQueryRange(addr uint64, cnt int, t1, t2, at vclock.Time) (Result[[]PageVersions], error) {
	if t2 < t1 {
		return Result[[]PageVersions]{}, fmt.Errorf("%w: t2 %v before t1 %v", ErrBadRange, t2, t1)
	}
	return k.addrQuery(addr, cnt, at, func(lpa uint64, when vclock.Time) ([]core.Version, vclock.Time, error) {
		vers, done, err := k.dev.Versions(lpa, when)
		if err != nil {
			return nil, done, err
		}
		var keep []core.Version
		for _, v := range vers {
			if v.TS >= t1 && v.TS <= t2 {
				keep = append(keep, v)
			}
		}
		return keep, done, nil
	})
}

// AddrQueryAll returns every retained version for cnt LPAs starting at addr.
func (k *Kit) AddrQueryAll(addr uint64, cnt int, at vclock.Time) (Result[[]PageVersions], error) {
	return k.addrQuery(addr, cnt, at, k.dev.Versions)
}

// addrQuery fans one per-LPA query over the range. Each LPA's walk starts
// at the same instant, so independent LPAs proceed in parallel across
// channels exactly as the firmware parallelises them.
func (k *Kit) addrQuery(addr uint64, cnt int, at vclock.Time,
	fn func(lpa uint64, at vclock.Time) ([]core.Version, vclock.Time, error)) (Result[[]PageVersions], error) {
	if err := k.checkRange(addr, cnt); err != nil {
		return Result[[]PageVersions]{}, err
	}
	out := make([]PageVersions, 0, cnt)
	done := at
	for i := 0; i < cnt; i++ {
		lpa := addr + uint64(i)
		vers, d, err := fn(lpa, at)
		if err != nil {
			return Result[[]PageVersions]{}, err
		}
		if d > done {
			done = d
		}
		out = append(out, PageVersions{LPA: lpa, Versions: vers})
	}
	return result(out, at, done), nil
}

// TimeQuery returns every LPA updated since time t with the matching write
// timestamps. It scans all valid LPAs (the paper's ~12-minute full-device
// query; proportionally faster on this simulator's smaller geometry).
func (k *Kit) TimeQuery(t, at vclock.Time) (Result[[]core.UpdateRecord], error) {
	return k.timeQuery(t, vclock.Time(int64(^uint64(0)>>1)), at)
}

// TimeQueryRange returns every LPA updated within [t1, t2].
func (k *Kit) TimeQueryRange(t1, t2, at vclock.Time) (Result[[]core.UpdateRecord], error) {
	if t2 < t1 {
		return Result[[]core.UpdateRecord]{}, fmt.Errorf("%w: t2 %v before t1 %v", ErrBadRange, t2, t1)
	}
	return k.timeQuery(t1, t2, at)
}

// TimeQueryAll returns the update history of the entire retention window.
func (k *Kit) TimeQueryAll(at vclock.Time) (Result[[]core.UpdateRecord], error) {
	return k.timeQuery(k.dev.RetentionWindowStart(), vclock.Time(int64(^uint64(0)>>1)), at)
}

func (k *Kit) timeQuery(from, to, at vclock.Time) (Result[[]core.UpdateRecord], error) {
	recs, done, err := k.dev.UpdatedBetween(from, to, at)
	if err != nil {
		return Result[[]core.UpdateRecord]{}, err
	}
	// UpdatedBetween scans LPAs in ascending order, which is the order this
	// API promises (array.timeFan's merge answers byte for byte only then).
	return result(recs, at, done), nil
}

// checkRange validates an (addr, cnt) LPA range against device capacity —
// untrusted counts must never reach a preallocation or a long loop.
func (k *Kit) checkRange(addr uint64, cnt int) error {
	logical := uint64(k.dev.LogicalPages())
	if cnt < 1 || uint64(cnt) > logical || addr > logical-uint64(cnt) {
		return fmt.Errorf("%w: addr %d cnt %d (device has %d pages)", ErrBadRange, addr, cnt, logical)
	}
	return nil
}

// RollBack reverts cnt LPAs starting at addr to their state at time t.
func (k *Kit) RollBack(addr uint64, cnt int, t, at vclock.Time) (Result[int], error) {
	if err := k.checkRange(addr, cnt); err != nil {
		return Result[int]{}, err
	}
	changed := 0
	cur := at
	for i := 0; i < cnt; i++ {
		done, err := k.dev.RollBack(addr+uint64(i), t, cur)
		if err != nil {
			return Result[int]{}, err
		}
		cur = done
		changed++
	}
	return result(changed, at, cur), nil
}

// RollBackAll reverts every LPA with retrievable state to time t.
func (k *Kit) RollBackAll(t, at vclock.Time) (Result[int], error) {
	n, done, err := k.dev.RollBackAll(t, at)
	if err != nil {
		return Result[int]{}, err
	}
	return result(n, at, done), nil
}

// RollBackParallel reverts an explicit set of LPAs to time t using the
// given number of host threads. Each thread owns a shard of the LPAs and
// issues its operations serially; threads overlap on the device, which is
// what lets recovery scale with the SSD's internal parallelism (Fig. 11).
// The elapsed time is that of the slowest thread.
func (k *Kit) RollBackParallel(lpas []uint64, threads int, t, at vclock.Time) (Result[int], error) {
	if threads < 1 {
		return Result[int]{}, fmt.Errorf("%w: threads %d", ErrBadRange, threads)
	}
	if threads > len(lpas) && len(lpas) > 0 {
		threads = len(lpas)
	}
	cur := make([]vclock.Time, threads)
	for i := range cur {
		cur[i] = at
	}
	changed := 0
	// Round-robin sharding; operations of different threads interleave in
	// issue order, contending for channels exactly like concurrent host
	// threads with one outstanding request each.
	for i, lpa := range lpas {
		th := i % threads
		done, err := k.dev.RollBack(lpa, t, cur[th])
		if err != nil {
			return Result[int]{}, err
		}
		cur[th] = done
		changed++
	}
	done := at
	for _, c := range cur {
		if c > done {
			done = c
		}
	}
	return result(changed, at, done), nil
}

// VersionsParallel fetches full version histories for a set of LPAs with
// the given host thread count, returning when the slowest thread finishes.
func (k *Kit) VersionsParallel(lpas []uint64, threads int, at vclock.Time) (Result[[]PageVersions], error) {
	if threads < 1 {
		return Result[[]PageVersions]{}, fmt.Errorf("%w: threads %d", ErrBadRange, threads)
	}
	if threads > len(lpas) && len(lpas) > 0 {
		threads = len(lpas)
	}
	cur := make([]vclock.Time, threads)
	for i := range cur {
		cur[i] = at
	}
	out := make([]PageVersions, 0, len(lpas))
	for i, lpa := range lpas {
		th := i % threads
		vers, done, err := k.dev.Versions(lpa, cur[th])
		if err != nil {
			return Result[[]PageVersions]{}, err
		}
		cur[th] = done
		out = append(out, PageVersions{LPA: lpa, Versions: vers})
	}
	done := at
	for _, c := range cur {
		if c > done {
			done = c
		}
	}
	return result(out, at, done), nil
}
