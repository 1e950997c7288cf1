package bloom

import (
	"testing"

	"almanac/internal/invariant"
	"almanac/internal/vclock"
)

// TestChainAllocs pins the Bloom chain's per-call allocation contract:
// Invalidate touches the heap only when it seals a full segment and opens
// the next, and Contains never does, with or without the probe memo. Both
// run on every page the device invalidates or GC considers.
func TestChainAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("almanacdebug shadow assertions allocate")
	}
	const capPerBF, group = 4096, 16
	c := NewChain(capPerBF, 0.001, group, 0)
	for i := 0; i < 3*capPerBF*group; i++ { // three sealed segments behind the active one
		c.Invalidate(uint64(i), vclock.Time(i))
	}
	segments := c.Len()
	ppa := uint64(3 * capPerBF * group)
	if n := testing.AllocsPerRun(1000, func() { // 63 new groups: the active segment has room
		c.Invalidate(ppa, vclock.Time(ppa))
		ppa++
	}); n != 0 || c.Len() != segments {
		t.Fatalf("Invalidate allocates %.2f times per call inside a segment (chain %d -> %d), want 0", n, segments, c.Len())
	}
	probe := func(what string) {
		i := uint64(0)
		if n := testing.AllocsPerRun(1000, func() {
			c.Contains(i * 257) // hits in every segment, and misses past the last
			i++
		}); n != 0 {
			t.Fatalf("Contains (%s) allocates %.2f times per call, want 0", what, n)
		}
	}
	probe("no memo")
	c.EnableMemo(4 * capPerBF * group)
	probe("memo cold")
	probe("memo warm")
}
