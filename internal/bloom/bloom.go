// Package bloom implements the time-segmented Bloom filter chain TimeSSD
// uses to record page invalidation times space-efficiently (§3.5, Fig. 4).
//
// Whenever a data page is invalidated, its physical page address (at group
// granularity, N consecutive pages) is added to the active filter. Once the
// active filter has absorbed a fixed number of insertions it is sealed and a
// new active filter is created, so each filter covers the invalidations of
// one time segment. Filters retire strictly in creation order: deleting the
// oldest filter shortens the retention window. Membership can produce false
// positives (a page is retained longer than necessary — harmless) but never
// false negatives (a non-expired page is never reclaimed by mistake).
package bloom

import (
	"math"

	"almanac/internal/invariant"
	"almanac/internal/vclock"
)

// Filter is a single Bloom filter over uint64 keys.
type Filter struct {
	bits    []uint64
	mBits   uint64 // number of bits
	k       int    // hash functions
	n       int    // insertions so far
	Created vclock.Time
	Sealed  vclock.Time // zero until sealed

	// debugKeys is the shadow set behind the almanacdebug no-false-negative
	// audit: every key this filter answers for must keep testing positive.
	// Nil (and free) in normal builds.
	debugKeys map[uint64]struct{}
}

// NewFilter sizes a filter for the expected number of insertions and target
// false-positive probability.
func NewFilter(expected int, fp float64, created vclock.Time) *Filter {
	if expected < 1 {
		expected = 1
	}
	if fp <= 0 || fp >= 1 {
		fp = 0.01
	}
	m := uint64(math.Ceil(-float64(expected) * math.Log(fp) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(float64(m) / float64(expected) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &Filter{
		bits:    make([]uint64, (m+63)/64),
		mBits:   m,
		k:       k,
		Created: created,
	}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Add inserts key into the filter.
func (f *Filter) Add(key uint64) {
	if invariant.Enabled {
		f.recordDebug(key)
	}
	h1 := splitmix64(key)
	h2 := splitmix64(h1) | 1
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.mBits
		f.bits[bit/64] |= 1 << (bit % 64)
	}
	f.n++
}

// Contains reports whether key may have been inserted.
func (f *Filter) Contains(key uint64) bool {
	h1 := splitmix64(key)
	h2 := splitmix64(h1) | 1
	hit := true
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.mBits
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			hit = false
			break
		}
	}
	if invariant.Enabled && !hit {
		// A false positive only retains a page longer (harmless); a false
		// negative would let GC reclaim a non-expired page (§3.5).
		_, recorded := f.debugKeys[key]
		invariant.Assert(!recorded, "bloom false negative: recorded key %d tests absent", key)
	}
	return hit
}

// AddIfMissing inserts key unless it already tests present, and reports
// whether it tested present beforehand. It is Contains followed by Add with
// a single hash pass — bit positions are computed once — so results and bit
// patterns are identical to the two-call sequence.
func (f *Filter) AddIfMissing(key uint64) bool {
	h1 := splitmix64(key)
	h2 := splitmix64(h1) | 1
	var pos [16]uint64
	hit := true
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.mBits
		pos[i] = bit
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			hit = false
			for j := i + 1; j < f.k; j++ {
				pos[j] = (h1 + uint64(j)*h2) % f.mBits
			}
			break
		}
	}
	if invariant.Enabled {
		if !hit {
			// Same audit as Contains: a recorded key must never test absent.
			_, recorded := f.debugKeys[key]
			invariant.Assert(!recorded, "bloom false negative: recorded key %d tests absent", key)
		}
		f.recordDebug(key)
	}
	if hit {
		return true
	}
	for i := 0; i < f.k; i++ {
		f.bits[pos[i]/64] |= 1 << (pos[i] % 64)
	}
	f.n++
	return false
}

// recordDebug notes a key the filter has answered for (almanacdebug only).
func (f *Filter) recordDebug(key uint64) {
	if f.debugKeys == nil {
		f.debugKeys = make(map[uint64]struct{})
	}
	f.debugKeys[key] = struct{}{}
}

// Count returns the number of insertions the filter has absorbed.
func (f *Filter) Count() int { return f.n }

// SizeBytes returns the memory footprint of the bit array.
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

// Chain is the ordered sequence of Bloom filters spanning the retention
// window, oldest first. The last filter is always the active one.
type Chain struct {
	filters  []*Filter
	capPerBF int     // insertions per filter before sealing
	fp       float64 // target false-positive rate
	group    uint64  // pages per invalidation group (N, §3.5)
	dropped  int     // filters retired so far; dropped+i is filter i's stable id
	memo     []memoEntry
}

// memoEntry caches one group key's newest chain probe result. sHit is the
// stable id of the filter that answered positive (memoEmpty when nothing is
// cached, memoMiss when a full-chain miss is cached); sFrontier is the
// stable id of the filter that was active when the probe ran. Every probed
// filter below sFrontier was sealed at probe time — sealed filters never
// gain bits, so those misses hold forever and only filters at or above
// sFrontier ever need re-probing. A cached miss needs no drop validation:
// dropping filters can only remove hits, never create them.
type memoEntry struct {
	sHit      int32
	sFrontier int32
}

const (
	memoEmpty = -1 // no cached probe for this key
	memoMiss  = -2 // cached full-chain miss below sFrontier
)

// NewChain creates a chain with one active filter. capPerBF is the number
// of group insertions a filter absorbs before a new segment starts; group
// is the page-group granularity N (16 in the paper's design).
func NewChain(capPerBF int, fp float64, group int, now vclock.Time) *Chain {
	if capPerBF < 1 {
		capPerBF = 1
	}
	if group < 1 {
		group = 1
	}
	c := &Chain{capPerBF: capPerBF, fp: fp, group: uint64(group)}
	c.filters = append(c.filters, NewFilter(capPerBF, fp, now))
	return c
}

// GroupOf maps a PPA to its invalidation-group key.
func (c *Chain) GroupOf(ppa uint64) uint64 { return ppa / c.group }

// Invalidate records that ppa was invalidated at time now. If the active
// filter fills up it is sealed and a fresh one becomes active.
func (c *Chain) Invalidate(ppa uint64, now vclock.Time) {
	active := c.filters[len(c.filters)-1]
	key := c.GroupOf(ppa)
	// AddIfMissing is Contains+Add in one hash pass. When the whole group is
	// already marked in this segment (the paper's grouping makes this the
	// common case for sequential invalidation) nothing is inserted; under
	// almanacdebug the key is still recorded either way: if it hit as a
	// false positive of the active filter, the invalidation would be
	// silently attributed to earlier bits — the audit keeps it honest
	// (the bits never clear, so Contains must stay true).
	if active.AddIfMissing(key) {
		return
	}
	if active.n >= c.capPerBF {
		active.Sealed = now
		c.filters = append(c.filters, NewFilter(c.capPerBF, c.fp, now))
	}
}

// SealActive force-seals the active filter and opens a fresh one, even if
// the active filter is below capacity. The retention manager uses this when
// it must shorten a window that consists of a single segment. Returns false
// (and does nothing) if the active filter has no insertions — an empty
// segment records nothing, so sealing it would not help.
func (c *Chain) SealActive(now vclock.Time) bool {
	active := c.filters[len(c.filters)-1]
	if active.n == 0 {
		return false
	}
	active.Sealed = now
	c.filters = append(c.filters, NewFilter(c.capPerBF, c.fp, now))
	return true
}

// EnableMemo arms an exact positive-probe cache covering PPAs up to and
// including maxPPA. Sealed filters are immutable, so a recorded hit (and
// the misses of every filter sealed when it was recorded) can be replayed
// without re-hashing; only the filters the cache has not yet seen sealed
// are re-probed. Results are bit-identical to the uncached probe — the
// cache trades memory (8 bytes per page group) for skipped hash work.
func (c *Chain) EnableMemo(maxPPA uint64) {
	c.memo = make([]memoEntry, c.GroupOf(maxPPA)+1)
	for i := range c.memo {
		c.memo[i].sHit = memoEmpty
	}
}

// Contains reports whether ppa hits any filter in the chain. Filters are
// probed in reverse time order (newest first) as §3.6 prescribes; the index
// of the hit filter (0 = oldest) and true are returned, or -1 and false.
func (c *Chain) Contains(ppa uint64) (int, bool) {
	key := c.GroupOf(ppa)
	if c.memo == nil || key >= uint64(len(c.memo)) {
		return c.probe(key)
	}
	e := &c.memo[key]
	frontier := int32(c.dropped + len(c.filters) - 1)
	if e.sHit == memoEmpty {
		i, ok := c.probe(key)
		if ok {
			e.sHit = int32(c.dropped + i)
		} else {
			e.sHit = memoMiss
		}
		e.sFrontier = frontier
		return i, ok
	}
	// A cached answer covers every filter that was sealed when it was
	// recorded: those either missed then (and can never gain the key) or
	// produced the recorded hit. Re-probe only the filters not yet seen
	// sealed — a hit there supersedes the cached answer; otherwise the
	// cached hit stands if its filter is still live (a hit whose filter was
	// dropped leaves only sealed misses below the frontier, i.e. a miss).
	for i := len(c.filters) - 1; i >= 0 && c.dropped+i >= int(e.sFrontier); i-- {
		if c.filters[i].Contains(key) {
			e.sHit = int32(c.dropped + i)
			e.sFrontier = frontier
			return i, true
		}
	}
	e.sFrontier = frontier
	if int(e.sHit) < c.dropped { // miss sentinel or dropped hit
		e.sHit = memoMiss
		return -1, false
	}
	return int(e.sHit) - c.dropped, true
}

// probe is the uncached newest-first scan over every live filter.
func (c *Chain) probe(key uint64) (int, bool) {
	for i := len(c.filters) - 1; i >= 0; i-- {
		if c.filters[i].Contains(key) {
			return i, true
		}
	}
	return -1, false
}

// Len returns the number of filters in the chain (including the active one).
func (c *Chain) Len() int { return len(c.filters) }

// Filter returns the i-th filter (0 = oldest).
func (c *Chain) Filter(i int) *Filter { return c.filters[i] }

// DropOldest removes the oldest filter, shortening the retention window.
// The active filter is never dropped; if only the active filter remains,
// DropOldest returns false.
func (c *Chain) DropOldest() bool {
	if len(c.filters) <= 1 {
		return false
	}
	c.filters = c.filters[1:]
	c.dropped++
	return true
}

// WindowStart returns the creation time of the oldest filter — the start of
// the retrievable time window (Fig. 4).
func (c *Chain) WindowStart() vclock.Time { return c.filters[0].Created }

// SizeBytes returns the total memory footprint of all filters.
func (c *Chain) SizeBytes() int {
	total := 0
	for _, f := range c.filters {
		total += f.SizeBytes()
	}
	return total
}
