package obs

import (
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the fixed bucket count of every latency histogram.
//
// Bucket 0 holds sub-microsecond samples; bucket i (i ≥ 1) holds samples
// in [2^(i-1) µs, 2^i µs). The last bucket additionally absorbs overflow,
// so with 28 buckets the top finite bound is 2^26 µs ≈ 67 s — far beyond
// any single simulated command — and the exact maximum is tracked
// separately. Power-of-two microsecond buckets make bucketing one
// bits.Len64 with no float math on the record path.
const NumBuckets = 28

func bucketOf(ns int64) int {
	if ns < 1000 {
		return 0
	}
	b := bits.Len64(uint64(ns / 1000))
	if b > NumBuckets-1 {
		b = NumBuckets - 1
	}
	return b
}

// BucketBoundNS returns the exclusive upper bound of bucket i in
// nanoseconds; the last bucket is unbounded and returns -1.
func BucketBoundNS(i int) int64 {
	if i >= NumBuckets-1 {
		return -1
	}
	return 1000 << i
}

// hist is the mutable, atomically-updated histogram.
type hist struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

func (h *hist) observe(ns int64) { h.observeN(ns, 1) }

// observeN records n samples of ns each in O(1).
func (h *hist) observeN(ns, n int64) {
	if ns < 0 {
		ns = 0
	}
	h.count.Add(n)
	h.sum.Add(ns * n)
	h.buckets[bucketOf(ns)].Add(n)
	h.raiseMax(ns)
}

// merge records every sample s holds, as observing each one would.
func (h *hist) merge(s *HistSnapshot) {
	h.count.Add(s.Count)
	h.sum.Add(s.SumNS)
	for i, n := range s.Buckets {
		h.buckets[i].Add(n)
	}
	h.raiseMax(s.MaxNS)
}

func (h *hist) raiseMax(ns int64) {
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			return
		}
	}
}

// snapshot reads the histogram without stopping writers. Concurrent
// recording can skew count against buckets by in-flight samples; totals
// re-converge once recording quiesces.
func (h *hist) snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		SumNS: h.sum.Load(),
		MaxNS: h.max.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is an immutable histogram copy: the exchange format for
// merging, the wire, and reporting.
type HistSnapshot struct {
	Count   int64
	SumNS   int64
	MaxNS   int64
	Buckets [NumBuckets]int64
}

// MeanNS returns the average sample, or 0 for an empty histogram.
func (s HistSnapshot) MeanNS() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumNS / s.Count
}

// QuantileNS returns an upper bound on the q-quantile (0 < q ≤ 1): the
// q-quantile's bucket bound (QuantileBucketNS), or MaxNS where that is
// lower — no sample exceeds the maximum, so a bound above it says less.
func (s HistSnapshot) QuantileNS(q float64) int64 {
	return min(s.QuantileBucketNS(q), s.MaxNS)
}

// QuantileBucketNS returns the bound of the first bucket at which the
// cumulative count reaches q×Count (0 < q ≤ 1), and MaxNS for the
// unbounded last bucket: a value on the bucket grid, which can exceed
// MaxNS. Comparisons that want one fixed grid across histograms use it.
func (s HistSnapshot) QuantileBucketNS(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	want := int64(q * float64(s.Count))
	if want < 1 {
		want = 1
	}
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		if cum >= want {
			if b := BucketBoundNS(i); b >= 0 {
				return b
			}
			return s.MaxNS
		}
	}
	return s.MaxNS
}

// Observe adds one sample to s, bucketed as a registry would record it.
func (s *HistSnapshot) Observe(ns int64) {
	ns = max(ns, 0)
	s.Count++
	s.SumNS += ns
	s.MaxNS = max(s.MaxNS, ns)
	s.Buckets[bucketOf(ns)]++
}

// Add merges another snapshot into s.
func (s *HistSnapshot) Add(o HistSnapshot) {
	s.Count += o.Count
	s.SumNS += o.SumNS
	if o.MaxNS > s.MaxNS {
		s.MaxNS = o.MaxNS
	}
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Sub removes an earlier snapshot of the same histogram, leaving the
// samples observed between the two points (buckets are monotone
// counters, so the difference is exact). MaxNS cannot be decomposed and
// keeps s's value — the maximum seen up to the later point, not within
// the interval.
func (s *HistSnapshot) Sub(earlier HistSnapshot) {
	s.Count -= earlier.Count
	s.SumNS -= earlier.SumNS
	for i := range s.Buckets {
		s.Buckets[i] -= earlier.Buckets[i]
	}
}
