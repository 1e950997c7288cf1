package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"almanac/internal/vclock"
)

func TestFilterNoFalseNegatives(t *testing.T) {
	f := NewFilter(1000, 0.01, 0)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Add(keys[i])
	}
	for _, k := range keys {
		if !f.Contains(k) {
			t.Fatalf("false negative for %d", k)
		}
	}
}

func TestFilterFalsePositiveRate(t *testing.T) {
	f := NewFilter(10000, 0.01, 0)
	rng := rand.New(rand.NewSource(2))
	inserted := make(map[uint64]bool, 10000)
	for i := 0; i < 10000; i++ {
		k := rng.Uint64()
		inserted[k] = true
		f.Add(k)
	}
	fp := 0
	const probes = 100000
	for i := 0; i < probes; i++ {
		k := rng.Uint64()
		if inserted[k] {
			continue
		}
		if f.Contains(k) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Fatalf("false positive rate %.4f far above 1%% target", rate)
	}
}

func TestFilterDegenerateParams(t *testing.T) {
	// Nonsense sizing must still yield a working filter.
	f := NewFilter(0, 2.0, 0)
	f.Add(42)
	if !f.Contains(42) {
		t.Fatal("degenerate filter lost a key")
	}
}

func TestQuickNoFalseNegatives(t *testing.T) {
	fn := func(keys []uint64) bool {
		f := NewFilter(len(keys)+1, 0.01, 0)
		for _, k := range keys {
			f.Add(k)
		}
		for _, k := range keys {
			if !f.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChainSealsAndGrows(t *testing.T) {
	c := NewChain(10, 0.01, 1, 0)
	if c.Len() != 1 {
		t.Fatalf("fresh chain has %d filters", c.Len())
	}
	for i := 0; i < 95; i++ {
		c.Invalidate(uint64(i), vclock.Time(i))
	}
	// 95 distinct groups at 10 per filter: at least 9 filters.
	if c.Len() < 9 {
		t.Fatalf("chain has %d filters after 95 inserts at cap 10", c.Len())
	}
	// Every key is findable.
	for i := 0; i < 95; i++ {
		if _, ok := c.Contains(uint64(i)); !ok {
			t.Fatalf("chain lost key %d", i)
		}
	}
}

func TestChainGroupGranularity(t *testing.T) {
	c := NewChain(100, 0.01, 16, 0)
	// Sequentially invalidated pages of one group count once.
	for p := uint64(0); p < 16; p++ {
		c.Invalidate(p, 0)
	}
	if got := c.Filter(c.Len() - 1).Count(); got != 1 {
		t.Fatalf("16 sequential pages used %d insertions, want 1", got)
	}
	// Any page of the group hits.
	if _, ok := c.Contains(7); !ok {
		t.Fatal("group member missed")
	}
}

func TestChainDropOldestShortensWindow(t *testing.T) {
	c := NewChain(5, 0.01, 1, 0)
	for i := 0; i < 23; i++ {
		c.Invalidate(uint64(i), vclock.Time(i*100))
	}
	n := c.Len()
	start := c.WindowStart()
	if !c.DropOldest() {
		t.Fatal("drop failed with multiple filters")
	}
	if c.Len() != n-1 {
		t.Fatalf("len %d after drop, want %d", c.Len(), n-1)
	}
	if !start.Before(c.WindowStart()) {
		t.Fatalf("window start did not advance: %v -> %v", start, c.WindowStart())
	}
	// The active filter is never dropped.
	for c.Len() > 1 {
		c.DropOldest()
	}
	if c.DropOldest() {
		t.Fatal("dropped the active filter")
	}
}

func TestChainContainsChecksNewestFirst(t *testing.T) {
	c := NewChain(1, 0.01, 1, 0) // every insertion seals a filter
	c.Invalidate(1, 10)
	c.Invalidate(2, 20)
	c.Invalidate(3, 30)
	idx, ok := c.Contains(3)
	if !ok {
		t.Fatal("recent key missed")
	}
	// Key 3 was inserted most recently; its hit index must be the newest
	// filter that contains it.
	idx1, ok1 := c.Contains(1)
	if !ok1 {
		t.Fatal("old key missed")
	}
	if idx1 >= idx {
		t.Fatalf("older key reported newer segment: %d vs %d", idx1, idx)
	}
}

// TestChainMemoMatchesUncached drives a memoized chain and an uncached twin
// through an identical randomized schedule of invalidations, probes, seals
// and drops, asserting every Contains answer (index and verdict) is
// bit-identical. The memo is pure host-side acceleration; any divergence
// here would change simulated GC and query behaviour.
func TestChainMemoMatchesUncached(t *testing.T) {
	const maxPPA = 1 << 12
	rng := rand.New(rand.NewSource(7))
	memo := NewChain(32, 0.01, 4, 0)
	memo.EnableMemo(maxPPA)
	plain := NewChain(32, 0.01, 4, 0)
	now := vclock.Time(0)
	for step := 0; step < 200000; step++ {
		now = now.Add(vclock.Microsecond)
		switch op := rng.Intn(10); {
		case op < 4: // invalidate
			ppa := uint64(rng.Intn(maxPPA))
			memo.Invalidate(ppa, now)
			plain.Invalidate(ppa, now)
		case op < 9: // probe (repeats exercise warm memo entries)
			ppa := uint64(rng.Intn(maxPPA))
			mi, mok := memo.Contains(ppa)
			pi, pok := plain.Contains(ppa)
			if mi != pi || mok != pok {
				t.Fatalf("step %d ppa %d: memo (%d,%v) != uncached (%d,%v)", step, ppa, mi, mok, pi, pok)
			}
		case op == 9 && rng.Intn(4) == 0: // occasionally shorten the window
			memo.DropOldest()
			plain.DropOldest()
		default:
			if rng.Intn(8) == 0 {
				memo.SealActive(now)
				plain.SealActive(now)
			}
		}
	}
}
