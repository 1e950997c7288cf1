package ftl

import (
	"math/rand"
	"testing"

	"almanac/internal/vclock"
)

func cachedParams(slots int) Params {
	p := tinyParams()
	p.MappingCacheSlots = slots
	return p
}

func TestMappingFullyCachedIsFree(t *testing.T) {
	r, err := NewRegular(cachedParams(0))
	if err != nil {
		t.Fatal(err)
	}
	at, err := r.Write(1, pageOf(r, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Read(1, at); err != nil {
		t.Fatal(err)
	}
	if r.MapStats.Hits+r.MapStats.Misses != 0 {
		t.Fatalf("fully-cached mapping produced demand-paging stats: %+v", r.MapStats)
	}
	if r.mcache != nil {
		t.Fatal("fully-cached mapping built a demand-paging cache")
	}
}

func TestMappingMissChargesRead(t *testing.T) {
	r, err := NewRegular(cachedParams(2))
	if err != nil {
		t.Fatal(err)
	}
	// First access to an LPA's translation page misses and costs a
	// translation-page read before the data read even starts.
	start := vclock.Time(vclock.Second)
	_, done, err := r.Read(5, start)
	if err != nil {
		t.Fatal(err)
	}
	if r.MapStats.Misses != 1 {
		t.Fatalf("misses = %d", r.MapStats.Misses)
	}
	// Unmapped LPA: the only cost is the translation fetch.
	if got, want := done.Sub(start), r.P.Flash.ReadLatency; got != want {
		t.Fatalf("miss charged %v, want one read latency %v", got, want)
	}
	// Second access hits for free.
	_, done2, _ := r.Read(5, done)
	if r.MapStats.Hits != 1 {
		t.Fatalf("hits = %d", r.MapStats.Hits)
	}
	if done2 != done {
		t.Fatalf("hit charged %v", done2.Sub(done))
	}
}

func TestMappingEvictionWritesBackDirty(t *testing.T) {
	r, err := NewRegular(cachedParams(1))
	if err != nil {
		t.Fatal(err)
	}
	entries := uint64(r.PageSize() / 4)
	// Dirty translation page 0 via a write…
	at, err := r.Write(0, pageOf(r, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	// …then touch a different translation page: the eviction must charge a
	// program (write-back) plus the read (fetch).
	before := at
	_, at, err = r.Read(entries*3, before)
	if err != nil {
		t.Fatal(err)
	}
	if r.MapStats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", r.MapStats.Writebacks)
	}
	if got := at.Sub(before); got < r.P.Flash.ReadLatency+r.P.Flash.ProgLatency {
		t.Fatalf("dirty eviction charged only %v", got)
	}
	if _, ok := r.mcache.byVPN[0]; ok {
		t.Fatal("evicted translation page still reported cached")
	}
}

func TestMappingCacheCorrectnessUnderChurn(t *testing.T) {
	// Demand paging must never change WHAT is read — only when.
	r, err := NewRegular(cachedParams(2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	model := map[uint64]byte{}
	var at vclock.Time
	logical := r.LogicalPages() / 2
	for i := 0; i < 3000; i++ {
		lpa := uint64(rng.Intn(logical))
		if rng.Intn(3) == 0 {
			data, _, err := r.Read(lpa, at)
			if err != nil {
				t.Fatal(err)
			}
			if data[0] != model[lpa] {
				t.Fatalf("step %d: lpa %d = %d want %d", i, lpa, data[0], model[lpa])
			}
			continue
		}
		b := byte(rng.Intn(255) + 1)
		if at, err = r.Write(lpa, pageOf(r, b), at); err != nil {
			t.Fatal(err)
		}
		model[lpa] = b
	}
	if r.MapStats.Misses == 0 || r.MapStats.Hits == 0 {
		t.Fatalf("cache never exercised: %+v", r.MapStats)
	}
}

func TestMappingLocalityHitsMore(t *testing.T) {
	// A sequential scan (high translation-page locality) must hit far more
	// often than a uniform random scan with the same cache.
	run := func(sequential bool) float64 {
		r, err := NewRegular(cachedParams(2))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		var at vclock.Time
		logical := r.LogicalPages()
		for i := 0; i < 2000; i++ {
			lpa := uint64(i % logical)
			if !sequential {
				lpa = uint64(rng.Intn(logical))
			}
			if at, err = r.Write(lpa, pageOf(r, 1), at); err != nil {
				t.Fatal(err)
			}
		}
		total := r.MapStats.Hits + r.MapStats.Misses
		return float64(r.MapStats.Hits) / float64(total)
	}
	seq := run(true)
	rnd := run(false)
	if seq <= rnd {
		t.Fatalf("sequential hit rate %.2f not above random %.2f", seq, rnd)
	}
	if seq < 0.9 {
		t.Fatalf("sequential scan hit rate only %.2f", seq)
	}
}
