package core

import (
	"almanac/internal/vclock"
)

// refCache is a bounded LRU of decoded retained versions keyed by
// (LPA, write timestamp). Queries re-decode the same versions call after
// call: a Versions walk decodes every delta it reaches, and a VersionAt
// decodes its target through the same chain of XOR references each time
// (resolve), so a page's newer versions reappear in every query that
// reaches past them. The cache skips the host-side work of a repeat decode
// — LZF decompression, XOR reconstruction, and retained-data decryption —
// while the walk still issues every flash read and still charges the
// firmware's delta-decode cost, so virtual-time results are identical with
// the cache on, off, or cold. Only the versions a query decodes are probed
// and filled.
//
// A (LPA, TS) pair names immutable content while the version is retrievable;
// the entry is dropped anyway on every event that could retire or replace
// the version (host write and trim of the LPA, rollback — which is writes
// and trims, window shortening, cohort retirement). Rebuild builds a fresh
// device and therefore starts cold by construction.
//
// Storage is a fixed slot arena threaded by intrusive index lists rather
// than container/list + maps: the write path calls invalidateLPA on every
// host write, and the flat per-LPA chain heads make the common no-entries
// case a single slice load instead of a map probe. Evicted and invalidated
// slots keep their data capacity, so a warm cache re-fills without
// allocating. The cache is per-device host-side state, like the tables of
// the FTL model: devices are single-goroutine, so no locking.
type refCache struct {
	slots   int
	byKey   map[refKey]int32
	entries []refEntry // fixed arena of `slots` entries
	lpaHead []int32    // per-LPA chain head (index into entries, -1 = none)

	freeHead         int32 // free-slot list threaded through refEntry.next
	lruHead, lruTail int32 // most / least recently used
	n                int

	hits, misses, evictions int64
}

type refKey struct {
	lpa uint64
	ts  vclock.Time
}

type refEntry struct {
	key  refKey
	data []byte // cache-owned copy of the decoded version

	prev, next       int32 // LRU neighbors (-1 = list end); next doubles as the free link
	lpaPrev, lpaNext int32 // same-LPA chain neighbors (-1 = end)
}

// newRefCache returns a cache holding at most slots decoded versions for a
// device with logicalPages host pages, or nil (fully disabled) when
// slots <= 0.
func newRefCache(slots, logicalPages int) *refCache {
	if slots <= 0 {
		return nil
	}
	c := &refCache{
		slots:   slots,
		byKey:   make(map[refKey]int32, slots),
		entries: make([]refEntry, slots),
		lpaHead: make([]int32, logicalPages),
		lruHead: -1,
		lruTail: -1,
	}
	for i := range c.entries {
		c.entries[i].next = int32(i + 1)
	}
	c.entries[slots-1].next = -1
	for i := range c.lpaHead {
		c.lpaHead[i] = -1
	}
	return c
}

func (c *refCache) lruUnlink(i int32) {
	e := &c.entries[i]
	if e.prev != -1 {
		c.entries[e.prev].next = e.next
	} else {
		c.lruHead = e.next
	}
	if e.next != -1 {
		c.entries[e.next].prev = e.prev
	} else {
		c.lruTail = e.prev
	}
}

func (c *refCache) lruPushFront(i int32) {
	e := &c.entries[i]
	e.prev = -1
	e.next = c.lruHead
	if c.lruHead != -1 {
		c.entries[c.lruHead].prev = i
	}
	c.lruHead = i
	if c.lruTail == -1 {
		c.lruTail = i
	}
}

// detachLPA unlinks entry i from its LPA's chain.
func (c *refCache) detachLPA(i int32) {
	e := &c.entries[i]
	if e.lpaPrev != -1 {
		c.entries[e.lpaPrev].lpaNext = e.lpaNext
	} else {
		c.lpaHead[e.key.lpa] = e.lpaNext
	}
	if e.lpaNext != -1 {
		c.entries[e.lpaNext].lpaPrev = e.lpaPrev
	}
}

// get returns the cached decode of version (lpa, ts), or nil. The returned
// slice is the cache's own copy: callers must not mutate it.
func (c *refCache) get(lpa uint64, ts vclock.Time) []byte {
	if c == nil {
		return nil
	}
	i, ok := c.byKey[refKey{lpa, ts}]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	if c.lruHead != i {
		c.lruUnlink(i)
		c.lruPushFront(i)
	}
	return c.entries[i].data
}

// put stores a copy of data as the decode of version (lpa, ts), evicting
// the least recently used entry if the cache is full.
func (c *refCache) put(lpa uint64, ts vclock.Time, data []byte) {
	if c == nil {
		return
	}
	key := refKey{lpa, ts}
	if i, ok := c.byKey[key]; ok {
		if c.lruHead != i {
			c.lruUnlink(i)
			c.lruPushFront(i)
		}
		return // content for a live key is immutable; nothing to refresh
	}
	var i int32
	if c.freeHead != -1 {
		i = c.freeHead
		c.freeHead = c.entries[i].next
	} else {
		i = c.lruTail
		c.lruUnlink(i)
		c.detachLPA(i)
		delete(c.byKey, c.entries[i].key)
		c.evictions++
		c.n--
	}
	e := &c.entries[i]
	e.key = key
	e.data = append(e.data[:0], data...)
	c.byKey[key] = i
	c.lruPushFront(i)
	e.lpaPrev = -1
	e.lpaNext = c.lpaHead[lpa]
	if e.lpaNext != -1 {
		c.entries[e.lpaNext].lpaPrev = i
	}
	c.lpaHead[lpa] = i
	c.n++
}

// invalidateLPA drops every cached version of lpa (host write, trim, and
// the writes/trims a rollback issues).
func (c *refCache) invalidateLPA(lpa uint64) {
	if c == nil {
		return
	}
	for i := c.lpaHead[lpa]; i != -1; {
		next := c.entries[i].lpaNext
		c.lruUnlink(i)
		delete(c.byKey, c.entries[i].key)
		c.entries[i].next = c.freeHead
		c.freeHead = i
		c.n--
		i = next
	}
	c.lpaHead[lpa] = -1
}

// invalidateAll empties the cache (window shortening and cohort
// retirement may expire versions of any LPA). O(live entries).
func (c *refCache) invalidateAll() {
	if c == nil {
		return
	}
	for i := c.lruHead; i != -1; {
		next := c.entries[i].next
		c.lpaHead[c.entries[i].key.lpa] = -1
		c.entries[i].next = c.freeHead
		c.freeHead = i
		i = next
	}
	clear(c.byKey)
	c.lruHead, c.lruTail = -1, -1
	c.n = 0
}

// lpaCount reports the number of cached versions of lpa.
func (c *refCache) lpaCount(lpa uint64) int {
	if c == nil {
		return 0
	}
	n := 0
	for i := c.lpaHead[lpa]; i != -1; i = c.entries[i].lpaNext {
		n++
	}
	return n
}

// len reports the number of cached versions.
func (c *refCache) len() int {
	if c == nil {
		return 0
	}
	return c.n
}
