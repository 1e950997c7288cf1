package obs

import (
	"reflect"
	"sync"
	"testing"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {999, 0}, {1000, 1}, {1999, 1}, {2000, 2},
		{3999, 2}, {4000, 3}, {1_000_000, 10}, {1 << 62, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	if BucketBoundNS(0) != 1000 || BucketBoundNS(3) != 8000 {
		t.Errorf("unexpected bucket bounds: %d, %d", BucketBoundNS(0), BucketBoundNS(3))
	}
	if BucketBoundNS(NumBuckets-1) != -1 {
		t.Errorf("last bucket must be unbounded")
	}
}

func TestHistSnapshotStats(t *testing.T) {
	var h hist
	for _, ns := range []int64{500, 1500, 1500, 3000, 1_000_000} {
		h.observe(ns)
	}
	s := h.snapshot()
	if s.Count != 5 || s.SumNS != 500+1500+1500+3000+1_000_000 {
		t.Fatalf("count/sum wrong: %+v", s)
	}
	if s.MaxNS != 1_000_000 {
		t.Fatalf("max = %d", s.MaxNS)
	}
	if s.MeanNS() != s.SumNS/5 {
		t.Fatalf("mean = %d", s.MeanNS())
	}
	// Median lands in the [1µs,2µs) bucket whose upper bound is 2000ns.
	if q := s.QuantileNS(0.5); q != 2000 {
		t.Fatalf("p50 = %d, want 2000", q)
	}
	// p100 lands in the [512µs,1024µs) bucket, whose bound is above the
	// maximum: the quantile is clamped to the maximum, the bucket bound is not.
	if q := s.QuantileNS(1.0); q != 1_000_000 {
		t.Fatalf("p100 = %d, want 1000000 (MaxNS, below the 1024000 bucket bound)", q)
	}
	if q := s.QuantileBucketNS(1.0); q != 1_024_000 {
		t.Fatalf("p100 bucket = %d, want 1024000 (the [512µs,1024µs) bucket bound)", q)
	}
}

// TestQuantileNeverExceedsMax pins the clamp on the case that exposed it:
// every sample in one bucket, all below that bucket's bound, so each
// percentile's bucket bound lies above the maximum.
func TestQuantileNeverExceedsMax(t *testing.T) {
	var h hist
	for _, ns := range []int64{600_000, 700_000, 750_000} {
		h.observe(ns)
	}
	s := h.snapshot()
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := s.QuantileNS(q); got != 750_000 {
			t.Errorf("p%g = %d, want the 750000 maximum", 100*q, got)
		}
		if got := s.QuantileBucketNS(q); got != 1_024_000 {
			t.Errorf("p%g bucket = %d, want 1024000", 100*q, got)
		}
	}
	if got := (HistSnapshot{}).QuantileNS(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %d, want 0", got)
	}
}

func TestDisabledRecordsNothing(t *testing.T) {
	r := NewRegistry()
	if r.Start() != 0 {
		t.Fatal("Start must return 0 while disabled")
	}
	r.Observe(HostWrite, 1000, 0, true)
	r.Record(HostRead, 1, 0, 1000, 0, true)
	if len(r.Ops()) != 0 || len(r.Trace(0)) != 0 {
		t.Fatal("disabled registry recorded samples")
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	if r.Enabled() || r.Start() != 0 {
		t.Fatal("nil registry must read as disabled")
	}
	r.SetEnabled(true)
	r.SetShard(3)
	r.Observe(HostWrite, 1, 0, true)
	r.Record(HostWrite, 1, 0, 1, 0, true)
	if r.Ops() != nil || r.Trace(0) != nil {
		t.Fatal("nil registry must return empty snapshots")
	}
}

func TestObserveCountsAndErrors(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	ws := r.Start()
	if ws == 0 {
		t.Fatal("Start returned 0 while enabled")
	}
	r.Observe(HostWrite, 750_000, ws, true)
	r.Observe(HostWrite, 750_000, ws, true)
	r.Observe(HostWrite, 0, ws, false)
	ops := r.Ops()
	st, ok := ops["host-write"]
	if !ok {
		t.Fatalf("missing host-write class: %v", ops)
	}
	if st.Count != 2 || st.Errors != 1 {
		t.Fatalf("count/errors = %d/%d, want 2/1", st.Count, st.Errors)
	}
	if st.Virt.Count != 2 || st.Wall.Count != 2 {
		t.Fatalf("hist counts = %d/%d, want 2/2", st.Virt.Count, st.Wall.Count)
	}
	if _, ok := ops["host-read"]; ok {
		t.Fatal("empty classes must be omitted")
	}
}

// TestBulkRecordMatchesOneByOne: merging a snapshot, or observing one value
// n times at once, leaves a histogram exactly as observing each sample
// would; ObserveBulk counts every sample on both the virtual and the wall
// side, as that many Observe calls do.
func TestBulkRecordMatchesOneByOne(t *testing.T) {
	samples := []int64{-5, 0, 999, 1000, 1500, 1500, 3000, 250_000, 1_000_000, 1 << 40}
	var one, merged hist
	var s HistSnapshot
	for _, ns := range samples {
		one.observe(ns)
		s.Observe(ns)
	}
	if s != one.snapshot() {
		t.Fatalf("HistSnapshot.Observe: %+v, hist.observe: %+v", s, one.snapshot())
	}
	merged.observe(7000) // merge adds to what is already there
	one.observe(7000)
	merged.merge(&s)
	if got, want := merged.snapshot(), one.snapshot(); got != want {
		t.Fatalf("merge: %+v, one by one: %+v", got, want)
	}

	var many, each hist
	many.observeN(3000, 5)
	for range 5 {
		each.observe(3000)
	}
	if got, want := many.snapshot(), each.snapshot(); got != want {
		t.Fatalf("observeN: %+v, one by one: %+v", got, want)
	}

	r := NewRegistry()
	r.SetEnabled(true)
	r.ObserveBulk(FlashRead, &s, r.Start())
	st := r.Ops()["flash-read"]
	if st.Count != s.Count || st.Virt != s || st.Wall.Count != s.Count {
		t.Fatalf("ObserveBulk: count %d, virt %+v, wall count %d; want %d samples", st.Count, st.Virt, st.Wall.Count, s.Count)
	}
}

// TestClassNamesRoundTrip: every class has its own name, so a snapshot
// keyed by name (Registry.Ops) maps back to one class.
func TestClassNamesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for c := Class(0); c < NumClasses; c++ {
		name := c.String()
		if seen[name] || name == NumClasses.String() {
			t.Fatalf("class %d: name %q is a duplicate or unknown", c, name)
		}
		seen[name] = true
	}
}

func TestRingOrderAndWrap(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.SetShard(7)
	total := RingSize + 100
	for i := 0; i < total; i++ {
		r.Record(HostWrite, uint64(i), int64(i), int64(i+1), 0, i%2 == 0)
	}
	ev := r.Trace(0)
	if len(ev) != RingSize {
		t.Fatalf("got %d events, want %d", len(ev), RingSize)
	}
	for i, e := range ev {
		want := uint64(total - RingSize + i)
		if e.LPA != want {
			t.Fatalf("event %d: lpa %d, want %d (not chronological)", i, e.LPA, want)
		}
		if e.Shard != 7 || e.Class != HostWrite {
			t.Fatalf("event %d mislabelled: %+v", i, e)
		}
		if e.OK != (want%2 == 0) {
			t.Fatalf("event %d outcome wrong: %+v", i, e)
		}
	}
	if got := r.Trace(16); len(got) != 16 || got[15].LPA != uint64(total-1) {
		t.Fatalf("Trace(16) wrong tail: %+v", got)
	}
}

func TestSnapshotMergeDeterministic(t *testing.T) {
	mk := func(shard int) Snapshot {
		r := NewRegistry()
		r.SetEnabled(true)
		r.SetShard(shard)
		for i := 0; i < 10*(shard+1); i++ {
			r.Observe(HostWrite, int64(1000*(i+1)), 0, true)
			r.Observe(FlashProgram, 750_000, 0, true)
		}
		return Snapshot{
			Shards:        1,
			WindowStartNS: int64(shard * 100),
			Segments:      shard + 1,
			C:             Counters{HostPageWrites: int64(10 * (shard + 1))},
			Ops:           r.Ops(),
		}
	}
	parts := []Snapshot{mk(0), mk(1), mk(2)}
	var fwd, rev Snapshot
	for _, p := range parts {
		fwd.Merge(p)
	}
	for i := len(parts) - 1; i >= 0; i-- {
		rev.Merge(parts[i])
	}
	if !reflect.DeepEqual(fwd, rev) {
		t.Fatalf("merge is order-sensitive:\n%+v\n%+v", fwd, rev)
	}
	if fwd.Shards != 3 || fwd.Segments != 6 || fwd.WindowStartNS != 200 {
		t.Fatalf("merged header wrong: %+v", fwd)
	}
	if fwd.C.HostPageWrites != 60 || fwd.Ops["host-write"].Count != 60 {
		t.Fatalf("merged counts wrong: %+v", fwd)
	}
	names := SortedOpNames(fwd.Ops)
	if !sortedStrings(names) {
		t.Fatalf("SortedOpNames not sorted: %v", names)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

// TestConcurrentHammer drives counters and the ring from many goroutines
// while readers snapshot continuously; run under -race this is the
// lock-freedom proof for the recording path.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = r.Ops()
					_ = r.Trace(64)
				}
			}
		}()
	}
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				ws := r.Start()
				r.Record(Class(i%int(NumClasses)), uint64(i), int64(i), int64(i+1000), ws, true)
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()
	var total int64
	for _, st := range r.Ops() {
		total += st.Count
	}
	if want := int64(writers * perWriter); total != want {
		t.Fatalf("recorded %d samples, want %d", total, want)
	}
}
