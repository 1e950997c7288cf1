package ftl

import (
	"container/list"

	"almanac/internal/vclock"
)

// mapCache is the DFTL-style demand cache over the address mapping table.
// The AMT's authoritative content stays in core (the simulator does not
// materialise translation pages as stored flash pages), but the *cost* of
// demand paging is charged faithfully: a miss reads one translation page
// from flash, and evicting a dirtied translation page writes it back. The
// GMD of Fig. 3 is the vpn→location directory; here it is implicit in the
// channel assignment (translation pages stripe across channels).
type mapCache struct {
	slots          int
	entriesPerPage int
	lru            *list.List // front = most recent; values are vpns
	byVPN          map[uint64]*list.Element
	dirty          map[uint64]bool
}

// MapStats counts demand-paging activity on the mapping table.
type MapStats struct {
	Hits       int64
	Misses     int64
	Writebacks int64
}

func newMapCache(slots, pageSize int) *mapCache {
	if slots <= 0 {
		return nil
	}
	entries := pageSize / 4 // 4-byte mapping entries, as in the paper's sizing example (§3.5)
	if entries < 1 {
		entries = 1
	}
	return &mapCache{
		slots:          slots,
		entriesPerPage: entries,
		lru:            list.New(),
		byVPN:          make(map[uint64]*list.Element, slots),
		dirty:          make(map[uint64]bool, slots),
	}
}

// TouchMapping accounts for the translation-table access of one host
// operation on lpa. With the cache disabled (full-DRAM mapping) it is
// free. write marks the entry's translation page dirty, so its eventual
// eviction costs a flash program.
func (b *Base) TouchMapping(lpa uint64, write bool, at vclock.Time) vclock.Time {
	mc := b.mcache
	if mc == nil {
		return at
	}
	vpn := lpa / uint64(mc.entriesPerPage)
	if el, ok := mc.byVPN[vpn]; ok {
		mc.lru.MoveToFront(el)
		if write {
			mc.dirty[vpn] = true
		}
		b.MapStats.Hits++
		return at
	}
	b.MapStats.Misses++
	// Evict the least-recently-used translation page if the cache is full.
	if mc.lru.Len() >= mc.slots {
		back := mc.lru.Back()
		evicted := back.Value.(uint64)
		mc.lru.Remove(back)
		delete(mc.byVPN, evicted)
		if mc.dirty[evicted] {
			delete(mc.dirty, evicted)
			b.MapStats.Writebacks++
			at = b.Arr.Charge(int(evicted)%b.P.Flash.Channels, at, b.P.Flash.ProgLatency)
		}
	}
	// Fetch the translation page.
	at = b.Arr.Charge(int(vpn)%b.P.Flash.Channels, at, b.P.Flash.ReadLatency)
	mc.byVPN[vpn] = mc.lru.PushFront(vpn)
	if write {
		mc.dirty[vpn] = true
	}
	return at
}
