package timekits

import (
	"bytes"
	"math/rand"
	"testing"

	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/vclock"
)

func newKit(t *testing.T) *Kit {
	t.Helper()
	fc := flash.DefaultConfig()
	fc.Channels = 4
	fc.ChipsPerChannel = 1
	fc.BlocksPerPlane = 16
	fc.PagesPerBlock = 8
	fc.PageSize = 128
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0
	cfg.BFGroup = 1
	d, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(d)
}

func page(k *Kit, lpa uint64, seq int) []byte {
	p := make([]byte, k.Device().PageSize())
	for i := range p {
		p[i] = byte(lpa)
	}
	p[0] = byte(seq)
	return p
}

// seed writes three versions of LPAs 0..n-1 at t=100i+{1000,2000,3000}.
func seed(t *testing.T, k *Kit, n int) vclock.Time {
	t.Helper()
	var at vclock.Time
	for round := 0; round < 3; round++ {
		for lpa := 0; lpa < n; lpa++ {
			at = vclock.Time(1000*(round+1) + 100*lpa)
			if _, err := k.Device().Write(uint64(lpa), page(k, uint64(lpa), round), at); err != nil {
				t.Fatal(err)
			}
		}
	}
	return 100000
}

func TestAddrQuery(t *testing.T) {
	k := newKit(t)
	at := seed(t, k, 4)
	res, err := k.AddrQuery(0, 4, 2500, at)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Value) != 4 {
		t.Fatalf("%d results", len(res.Value))
	}
	for _, pv := range res.Value {
		if len(pv.Versions) != 1 {
			t.Fatalf("lpa %d: %d versions at t=2500", pv.LPA, len(pv.Versions))
		}
		if pv.Versions[0].Data[0] != 1 {
			t.Fatalf("lpa %d: wrong round", pv.LPA)
		}
	}
	if res.Elapsed <= 0 {
		t.Fatal("query cost no device time")
	}
}

func TestAddrQueryEmptyPage(t *testing.T) {
	k := newKit(t)
	at := seed(t, k, 2)
	res, err := k.AddrQuery(50, 1, 2500, at)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Value[0].Versions) != 0 {
		t.Fatal("never-written LPA returned versions")
	}
}

func TestAddrQueryRange(t *testing.T) {
	k := newKit(t)
	at := seed(t, k, 2)
	res, err := k.AddrQueryRange(0, 1, 1500, 2500, at)
	if err != nil {
		t.Fatal(err)
	}
	vers := res.Value[0].Versions
	if len(vers) != 1 || vers[0].Data[0] != 1 {
		t.Fatalf("range query returned %d versions", len(vers))
	}
	if _, err := k.AddrQueryRange(0, 1, 2500, 1500, at); err == nil {
		t.Fatal("inverted time range accepted")
	}
}

func TestAddrQueryAll(t *testing.T) {
	k := newKit(t)
	at := seed(t, k, 2)
	res, err := k.AddrQueryAll(1, 1, at)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Value[0].Versions); got != 3 {
		t.Fatalf("got %d versions, want 3", got)
	}
}

func TestAddrQueryBadCount(t *testing.T) {
	k := newKit(t)
	if _, err := k.AddrQuery(0, 0, 0, 0); err == nil {
		t.Fatal("cnt=0 accepted")
	}
}

func TestRangeValidation(t *testing.T) {
	k := newKit(t)
	logical := uint64(k.Device().LogicalPages())
	// Hostile counts must be rejected before any allocation or loop.
	if _, err := k.AddrQueryAll(0, 1<<30, 0); err == nil {
		t.Fatal("absurd cnt accepted")
	}
	if _, err := k.AddrQueryAll(logical-1, 2, 0); err == nil {
		t.Fatal("range crossing device end accepted")
	}
	if _, err := k.RollBack(logical, 1, 0, 0); err == nil {
		t.Fatal("rollback past device end accepted")
	}
	// The largest legal range is accepted.
	if _, err := k.AddrQuery(0, int(logical), 0, 0); err != nil {
		t.Fatalf("full-device query rejected: %v", err)
	}
}

func TestTimeQuery(t *testing.T) {
	k := newKit(t)
	at := seed(t, k, 4)
	res, err := k.TimeQuery(2900, at)
	if err != nil {
		t.Fatal(err)
	}
	// Only round-2 writes (t=3000+100*lpa) are since 2900.
	if len(res.Value) != 4 {
		t.Fatalf("TimeQuery found %d LPAs, want 4", len(res.Value))
	}
	for _, r := range res.Value {
		if len(r.Times) != 1 {
			t.Fatalf("lpa %d: %d timestamps", r.LPA, len(r.Times))
		}
	}
}

func TestTimeQueryRange(t *testing.T) {
	k := newKit(t)
	at := seed(t, k, 4)
	res, err := k.TimeQueryRange(2000, 2300, at)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Value) != 4 {
		t.Fatalf("found %d LPAs", len(res.Value))
	}
	// Results are sorted by LPA.
	for i := 1; i < len(res.Value); i++ {
		if res.Value[i].LPA <= res.Value[i-1].LPA {
			t.Fatal("results not sorted")
		}
	}
	if _, err := k.TimeQueryRange(10, 5, at); err == nil {
		t.Fatal("inverted range accepted")
	}
}

// TestTimeQueryAscendingWithTrims pins the order of every time query:
// ascending LPA, with LPAs that are only trimmed (no live version, reported
// through their deletion time) in their place among the mapped ones.
// array.timeFan answers byte for byte as one device only on this order, and
// nothing re-sorts it on the way out.
func TestTimeQueryAscendingWithTrims(t *testing.T) {
	k := newKit(t)
	dev := k.Device()
	// Written out of LPA order, so the order cannot come from write time.
	lpas := []uint64{40, 3, 17, 9, 25, 0, 33}
	at := vclock.Time(1000)
	for _, lpa := range lpas {
		at += 100
		if _, err := dev.Write(lpa, page(k, lpa, 0), at); err != nil {
			t.Fatal(err)
		}
	}
	trimmed := map[uint64]vclock.Time{}
	for _, lpa := range []uint64{17, 0, 33} {
		at += 100
		if _, err := dev.Trim(lpa, at); err != nil {
			t.Fatal(err)
		}
		trimmed[lpa] = at
	}
	trimsFrom := at - 250 // after every write: trimmed LPAs match by deletion time alone

	check := func(name string, recs []core.UpdateRecord, want int) {
		t.Helper()
		if len(recs) != want {
			t.Fatalf("%s: %d records, want %d: %+v", name, len(recs), want, recs)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].LPA <= recs[i-1].LPA {
				t.Fatalf("%s: records not in ascending LPA order: %+v", name, recs)
			}
		}
		for _, r := range recs {
			if ts, ok := trimmed[r.LPA]; ok && r.Times[0] != ts {
				t.Fatalf("%s: trimmed lpa %d leads with %v, want its deletion time %v", name, r.LPA, r.Times[0], ts)
			}
		}
	}
	all, err := k.TimeQueryAll(at + 1000)
	if err != nil {
		t.Fatal(err)
	}
	check("TimeQueryAll", all.Value, len(lpas))
	since, err := k.TimeQuery(trimsFrom, at+1000)
	if err != nil {
		t.Fatal(err)
	}
	check("TimeQuery", since.Value, len(trimmed))
	rng, err := k.TimeQueryRange(trimsFrom, at, at+1000)
	if err != nil {
		t.Fatal(err)
	}
	check("TimeQueryRange", rng.Value, len(trimmed))
}

func TestTimeQueryAll(t *testing.T) {
	k := newKit(t)
	at := seed(t, k, 3)
	res, err := k.TimeQueryAll(at)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Value) != 3 {
		t.Fatalf("found %d LPAs", len(res.Value))
	}
}

func TestRollBackRange(t *testing.T) {
	k := newKit(t)
	at := seed(t, k, 4)
	res, err := k.RollBack(0, 4, 1500, at)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 4 {
		t.Fatalf("rolled back %d", res.Value)
	}
	for lpa := uint64(0); lpa < 4; lpa++ {
		data, _, _ := k.Device().Read(lpa, res.Done)
		if data[0] != 0 || data[5] != byte(lpa) {
			t.Fatalf("lpa %d not at round 0", lpa)
		}
	}
}

func TestRollBackAllKit(t *testing.T) {
	k := newKit(t)
	at := seed(t, k, 4)
	res, err := k.RollBackAll(1500, at)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 4 {
		t.Fatalf("changed %d pages", res.Value)
	}
}

func TestRollBackParallelCorrectAndFaster(t *testing.T) {
	k := newKit(t)
	d := k.Device()
	// Spread versions over many LPAs so channels can overlap.
	var at, endRound0 vclock.Time
	n := 64
	for round := 0; round < 2; round++ {
		for lpa := 0; lpa < n; lpa++ {
			at = at.Add(10 * vclock.Millisecond)
			done, err := d.Write(uint64(lpa), page(k, uint64(lpa), round), at)
			if err != nil {
				t.Fatal(err)
			}
			at = done
		}
		if round == 0 {
			endRound0 = at
		}
	}
	lpas := make([]uint64, n)
	for i := range lpas {
		lpas[i] = uint64(i)
	}
	// Measure with 1 thread on a fresh device copy is impossible (state
	// mutates), so measure 1-thread on the second half and 4-thread on the
	// first half; both shards are statistically identical.
	t1, err := k.VersionsParallel(lpas[:n/2], 1, at)
	if err != nil {
		t.Fatal(err)
	}
	// Start the second measurement after the first drains so residual
	// channel busy-time does not pollute it.
	t4, err := k.VersionsParallel(lpas[n/2:], 4, t1.Done)
	if err != nil {
		t.Fatal(err)
	}
	if t4.Elapsed >= t1.Elapsed {
		t.Fatalf("4 threads (%v) not faster than 1 (%v)", t4.Elapsed, t1.Elapsed)
	}
	// And parallel rollback restores content correctly.
	res, err := k.RollBackParallel(lpas, 4, endRound0, t4.Done)
	if err != nil {
		t.Fatal(err)
	}
	for lpa := 0; lpa < n; lpa++ {
		data, _, _ := d.Read(uint64(lpa), res.Done)
		if data[0] != 0 {
			t.Fatalf("lpa %d: rollback restored wrong round %d", lpa, data[0])
		}
	}
}

func TestRollBackParallelBadThreads(t *testing.T) {
	k := newKit(t)
	if _, err := k.RollBackParallel(nil, 0, 0, 0); err == nil {
		t.Fatal("threads=0 accepted")
	}
}

// TestKitUnderChurn drives random writes then checks AddrQueryAll agrees
// with direct device Versions for every LPA.
func TestKitUnderChurn(t *testing.T) {
	k := newKit(t)
	d := k.Device()
	rng := rand.New(rand.NewSource(3))
	var at vclock.Time
	for i := 0; i < 3000; i++ {
		at = at.Add(vclock.Second)
		lpa := uint64(rng.Intn(32))
		done, err := d.Write(lpa, page(k, lpa, i), at)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	for lpa := uint64(0); lpa < 32; lpa++ {
		want, _, err := d.Versions(lpa, at)
		if err != nil {
			t.Fatal(err)
		}
		res, err := k.AddrQueryAll(lpa, 1, at)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Value[0].Versions
		if len(got) != len(want) {
			t.Fatalf("lpa %d: kit %d versions, device %d", lpa, len(got), len(want))
		}
		for i := range got {
			if got[i].TS != want[i].TS || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("lpa %d version %d mismatch", lpa, i)
			}
		}
	}
}
