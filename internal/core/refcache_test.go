package core

import (
	"bytes"
	"testing"

	"almanac/internal/vclock"
)

// --- LRU unit tests -------------------------------------------------------

func TestRefCacheUnit(t *testing.T) {
	if newRefCache(0, 64) != nil {
		t.Fatal("slots=0 must disable the cache")
	}
	var disabled *refCache
	disabled.put(1, 2, []byte("x"))
	if disabled.get(1, 2) != nil || disabled.len() != 0 {
		t.Fatal("nil cache must be inert")
	}
	disabled.invalidateLPA(1)
	disabled.invalidateAll()

	c := newRefCache(2, 64)
	c.put(1, 10, []byte("a"))
	c.put(2, 20, []byte("b"))
	if got := c.get(1, 10); !bytes.Equal(got, []byte("a")) {
		t.Fatalf("get(1,10) = %q", got)
	}
	// (1,10) is now most recently used; inserting a third entry must evict
	// (2,20), the LRU.
	data := []byte("c")
	c.put(3, 30, data)
	if c.get(2, 20) != nil {
		t.Fatal("LRU entry survived eviction")
	}
	if c.evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.evictions)
	}
	// The cache owns its bytes: mutating the caller's slice after put must
	// not reach the cached copy.
	data[0] = 'z'
	if got := c.get(3, 30); !bytes.Equal(got, []byte("c")) {
		t.Fatalf("cache aliases caller bytes: %q", got)
	}
	// A duplicate put refreshes recency only; content for a live key is
	// immutable.
	c.put(3, 30, []byte("?"))
	if c.len() != 2 {
		t.Fatalf("len = %d after duplicate put, want 2", c.len())
	}
	if got := c.get(3, 30); !bytes.Equal(got, []byte("c")) {
		t.Fatalf("duplicate put replaced content: %q", got)
	}

	c.invalidateLPA(3)
	if c.get(3, 30) != nil {
		t.Fatal("entry survived invalidateLPA")
	}
	if c.get(1, 10) == nil {
		t.Fatal("invalidateLPA dropped an unrelated LPA")
	}
	c.invalidateAll()
	if c.len() != 0 || c.get(1, 10) != nil {
		t.Fatal("entries survived invalidateAll")
	}
	if c.hits == 0 || c.misses == 0 {
		t.Fatalf("counter accounting: hits=%d misses=%d", c.hits, c.misses)
	}
}

// --- device-level tests ---------------------------------------------------

// deltaChainDevice builds a device whose retained versions live in §3.7
// delta chains: several versions per page, idle-compressed and flushed, so
// Versions queries exercise decode (and therefore the reference cache).
func deltaChainDevice(t *testing.T, mutate func(*Config)) (*TimeSSD, vclock.Time) {
	t.Helper()
	d := newTiny(t, func(c *Config) {
		c.MinRetention = 365 * vclock.Day // nothing may expire mid-test
		if mutate != nil {
			mutate(c)
		}
	})
	at := vclock.Time(0)
	for seq := 0; seq < 6; seq++ {
		for lpa := uint64(0); lpa < 4; lpa++ {
			at = at.Add(vclock.Second)
			done, err := d.Write(lpa, versionPage(d, lpa, seq), at)
			if err != nil {
				t.Fatal(err)
			}
			at = done
		}
	}
	d.Idle(at, at.Add(vclock.Hour))
	at = at.Add(vclock.Hour)
	done, err := d.FlushDeltas(at)
	if err != nil {
		t.Fatal(err)
	}
	return d, done
}

// queryVersions fetches lpa's history and checks the content against the
// versionPage model.
func queryVersions(t *testing.T, d *TimeSSD, lpa uint64, at vclock.Time) ([]Version, vclock.Time) {
	t.Helper()
	vers, done, err := d.Versions(lpa, at)
	if err != nil {
		t.Fatalf("versions of %d: %v", lpa, err)
	}
	if len(vers) != 6 {
		t.Fatalf("lpa %d: %d versions, want 6", lpa, len(vers))
	}
	for i, v := range vers {
		if want := versionPage(d, lpa, 5-i); !bytes.Equal(v.Data, want) {
			t.Fatalf("lpa %d version %d (ts %v): content mismatch", lpa, i, v.TS)
		}
	}
	return vers, done
}

func TestRefCacheHitMissCounters(t *testing.T) {
	d, at := deltaChainDevice(t, nil)
	for lpa := uint64(0); lpa < 4; lpa++ {
		_, at = queryVersions(t, d, lpa, at)
	}
	st := d.Counters()
	if st.RefCacheMisses == 0 {
		t.Fatal("cold queries recorded no misses")
	}
	if st.RefCacheHits != 0 {
		t.Fatalf("cold queries recorded %d hits", st.RefCacheHits)
	}
	// Warm pass: every decode the first pass cached must now hit, and the
	// returned content must be identical.
	for lpa := uint64(0); lpa < 4; lpa++ {
		_, at = queryVersions(t, d, lpa, at)
	}
	warm := d.Counters()
	if warm.RefCacheHits == 0 {
		t.Fatal("warm queries recorded no hits")
	}
	if warm.RefCacheMisses != st.RefCacheMisses {
		t.Fatalf("warm queries missed: %d -> %d", st.RefCacheMisses, warm.RefCacheMisses)
	}
	// The same counters must flow through the obs view.
	c := d.Counters()
	if c.RefCacheHits != warm.RefCacheHits || c.RefCacheMisses != warm.RefCacheMisses {
		t.Fatalf("obs counters diverge: %+v vs %+v", c, warm)
	}
}

func TestRefCacheEvictionCounter(t *testing.T) {
	d, at := deltaChainDevice(t, func(c *Config) { c.RefCacheSlots = 2 })
	for lpa := uint64(0); lpa < 4; lpa++ {
		_, at = queryVersions(t, d, lpa, at)
	}
	if d.Counters().RefCacheEvictions == 0 {
		t.Fatal("2-slot cache never evicted across 4 delta chains")
	}
	if n := d.refcache.len(); n > 2 {
		t.Fatalf("cache holds %d entries, bound is 2", n)
	}
}

func TestRefCacheDisabled(t *testing.T) {
	d, at := deltaChainDevice(t, func(c *Config) { c.RefCacheSlots = -1 })
	if d.refcache != nil {
		t.Fatal("RefCacheSlots<=0 must disable the cache")
	}
	for lpa := uint64(0); lpa < 4; lpa++ {
		_, at = queryVersions(t, d, lpa, at)
		_, at = queryVersions(t, d, lpa, at)
	}
	st := d.Counters()
	if st.RefCacheHits != 0 || st.RefCacheMisses != 0 || st.RefCacheEvictions != 0 {
		t.Fatalf("disabled cache recorded activity: %+v", st)
	}
}

func TestRefCacheInvalidateOnWrite(t *testing.T) {
	d, at := deltaChainDevice(t, nil)
	_, at = queryVersions(t, d, 0, at)
	if d.refcache.lpaCount(0) == 0 {
		t.Fatal("warm query cached nothing for lpa 0")
	}
	at = at.Add(vclock.Second)
	done, err := d.Write(0, versionPage(d, 0, 6), at)
	if err != nil {
		t.Fatal(err)
	}
	if d.refcache.lpaCount(0) != 0 {
		t.Fatal("cached versions of lpa 0 survived a host write")
	}
	// The cold re-decode must see the new version on top of the old chain.
	vers, _, err := d.Versions(0, done)
	if err != nil {
		t.Fatal(err)
	}
	if len(vers) != 7 || !bytes.Equal(vers[0].Data, versionPage(d, 0, 6)) {
		t.Fatalf("post-write history wrong: %d versions", len(vers))
	}
}

func TestRefCacheInvalidateOnTrim(t *testing.T) {
	d, at := deltaChainDevice(t, nil)
	_, at = queryVersions(t, d, 1, at)
	if d.refcache.lpaCount(1) == 0 {
		t.Fatal("warm query cached nothing for lpa 1")
	}
	at = at.Add(vclock.Second)
	done, err := d.Trim(1, at)
	if err != nil {
		t.Fatal(err)
	}
	if d.refcache.lpaCount(1) != 0 {
		t.Fatal("cached versions of lpa 1 survived a trim")
	}
	// History queries after the trim decode cold and must not resurrect
	// stale cached bytes.
	if _, _, err := d.Versions(1, done.Add(vclock.Second)); err != nil {
		t.Fatal(err)
	}
}

func TestRefCacheInvalidateOnRollback(t *testing.T) {
	d, at := deltaChainDevice(t, nil)
	vers, at := queryVersions(t, d, 2, at)
	target := vers[3] // roll back to an older version
	at = at.Add(vclock.Second)
	done, err := d.RollBack(2, target.TS, at)
	if err != nil {
		t.Fatal(err)
	}
	if d.refcache.lpaCount(2) != 0 {
		t.Fatal("cached versions of lpa 2 survived a rollback")
	}
	data, _, err := d.Read(2, done.Add(vclock.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, target.Data) {
		t.Fatal("rollback restored wrong content")
	}
}

func TestRefCacheColdAfterWindowDrop(t *testing.T) {
	// A window drop may expire *any* version, so it must empty the whole
	// cache, not just one LPA's entries. Every pressure path (write-time
	// estimator, idle GC, retention flood) funnels through shortenWindow,
	// so drive that seam directly against a warm cache: a small BFCapacity
	// rolls the bloom chain into several segments during the warm-up, and
	// two virtual hours later dropping the oldest one is legal under the
	// 1-hour minimum.
	d, at := deltaChainDevice(t, func(c *Config) {
		c.MinRetention = vclock.Hour
		c.BFCapacity = 8
	})
	_, at = queryVersions(t, d, 0, at)
	if d.refcache.len() == 0 {
		t.Fatal("warm query cached nothing")
	}
	drops := d.st.WindowDrops
	at = at.Add(2 * vclock.Hour)
	if !d.shortenWindow(at) {
		t.Fatal("shortenWindow refused a legal drop")
	}
	if d.st.WindowDrops != drops+1 {
		t.Fatalf("WindowDrops = %d, want %d", d.st.WindowDrops, drops+1)
	}
	if n := d.refcache.len(); n != 0 {
		t.Fatalf("%d cached versions survived a window drop", n)
	}
	// Whatever survives the shortened window must still answer queries.
	if _, _, err := d.Versions(0, at); err != nil {
		t.Fatal(err)
	}
}

func TestRefCacheColdAfterRebuild(t *testing.T) {
	d, at := deltaChainDevice(t, nil)
	var colds [][]Version
	for lpa := uint64(0); lpa < 4; lpa++ {
		vers, done := queryVersions(t, d, lpa, at)
		colds = append(colds, vers)
		at = done
	}
	if d.refcache.len() == 0 {
		t.Fatal("queries cached nothing")
	}
	r, err := Rebuild(d.Arr, d.cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild constructs a fresh device: no cached decode and no counter
	// may survive the crash boundary.
	if r.refcache.len() != 0 {
		t.Fatal("cache state survived Rebuild")
	}
	if st := r.Counters(); st.RefCacheHits != 0 || st.RefCacheMisses != 0 {
		t.Fatalf("cache counters survived Rebuild: %+v", st)
	}
	// And the rebuilt device's cold decodes must match the pre-crash ones.
	for lpa := uint64(0); lpa < 4; lpa++ {
		vers, done, err := r.Versions(lpa, at)
		if err != nil {
			t.Fatal(err)
		}
		at = done
		want := colds[lpa]
		if len(vers) != len(want) {
			t.Fatalf("lpa %d: %d versions after rebuild, want %d", lpa, len(vers), len(want))
		}
		for i := range vers {
			if vers[i].TS != want[i].TS || !bytes.Equal(vers[i].Data, want[i].Data) {
				t.Fatalf("lpa %d version %d differs after rebuild", lpa, i)
			}
		}
	}
}
