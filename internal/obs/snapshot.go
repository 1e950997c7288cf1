package obs

import "sort"

// Counters is the canonical scalar-counter surface of one device (or,
// summed, of an array). The base FTL's exported fields feed it, and
// almaproto.DeviceStats, the client-side type of the frozen v1 OpStats
// payload, carries seven of its fields over the wire. It is flat and
// comparable so per-shard snapshots can be compared with == in
// determinism tests.
type Counters struct {
	// Host-visible command counts.
	HostPageWrites int64
	HostPageReads  int64
	TrimOps        int64

	// Flash micro-operations.
	FlashReads    int64
	FlashPrograms int64
	FlashErases   int64

	// Garbage collection.
	GCRuns     int64
	GCReads    int64
	GCWrites   int64
	GCErases   int64
	GCDeltaOps int64

	// Pages lost to uncorrectable reads during internal migration.
	ReadFailures int64

	// TimeSSD retention machinery.
	Invalidations     int64
	DeltasCreated     int64
	DeltaPagesWritten int64
	ExpiredReclaimed  int64
	WindowDrops       int64
	IdleCompressions  int64
	EstimatorChecks   int64
	EstimatorTrips    int64

	// Host-side reference-cache telemetry (query-path decode cache). These
	// describe simulator performance, not simulated-device behavior, and are
	// deliberately excluded from the almaproto wire payload.
	RefCacheHits      int64
	RefCacheMisses    int64
	RefCacheEvictions int64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.HostPageWrites += o.HostPageWrites
	c.HostPageReads += o.HostPageReads
	c.TrimOps += o.TrimOps
	c.FlashReads += o.FlashReads
	c.FlashPrograms += o.FlashPrograms
	c.FlashErases += o.FlashErases
	c.GCRuns += o.GCRuns
	c.GCReads += o.GCReads
	c.GCWrites += o.GCWrites
	c.GCErases += o.GCErases
	c.GCDeltaOps += o.GCDeltaOps
	c.ReadFailures += o.ReadFailures
	c.Invalidations += o.Invalidations
	c.DeltasCreated += o.DeltasCreated
	c.DeltaPagesWritten += o.DeltaPagesWritten
	c.ExpiredReclaimed += o.ExpiredReclaimed
	c.WindowDrops += o.WindowDrops
	c.IdleCompressions += o.IdleCompressions
	c.EstimatorChecks += o.EstimatorChecks
	c.EstimatorTrips += o.EstimatorTrips
	c.RefCacheHits += o.RefCacheHits
	c.RefCacheMisses += o.RefCacheMisses
	c.RefCacheEvictions += o.RefCacheEvictions
}

// OpStats is the per-class statistics snapshot: sample count, error
// count, and the virtual-time and wall-time histograms.
type OpStats struct {
	Count  int64
	Errors int64
	Virt   HistSnapshot
	Wall   HistSnapshot
}

func (o *OpStats) add(s OpStats) {
	o.Count += s.Count
	o.Errors += s.Errors
	o.Virt.Add(s.Virt)
	o.Wall.Add(s.Wall)
}

// Sub removes an earlier snapshot of the same class, leaving the
// activity between the two points (see HistSnapshot.Sub for the MaxNS
// caveat).
func (o *OpStats) Sub(earlier OpStats) {
	o.Count -= earlier.Count
	o.Errors -= earlier.Errors
	o.Virt.Sub(earlier.Virt)
	o.Wall.Sub(earlier.Wall)
}

// DeltaOps returns later minus earlier per class: the per-op activity
// between two snapshots of the same device. Classes absent from earlier
// are taken whole; classes whose delta is empty are omitted.
func DeltaOps(earlier, later map[string]OpStats) map[string]OpStats {
	out := make(map[string]OpStats, len(later))
	for _, name := range SortedOpNames(later) {
		st := later[name]
		st.Sub(earlier[name])
		if st.Count != 0 || st.Errors != 0 {
			out[name] = st
		}
	}
	return out
}

// Snapshot is a point-in-time view of one device or a whole array:
// scalar counters plus per-class histograms. Merging shard snapshots
// visits keys in sorted order, so array-wide snapshots built from the
// same per-shard states are identical regardless of merge order.
type Snapshot struct {
	Shards        int
	WindowStartNS int64 // start of the retrievable window, virtual ns
	Segments      int   // live Bloom-filter time segments (summed over shards)
	C             Counters
	Ops           map[string]OpStats
}

// Merge folds o into s: counters and segment counts sum, the window
// start takes the maximum (the intersection semantics of an array's
// retrievable window), and per-class stats accumulate key by key.
func (s *Snapshot) Merge(o Snapshot) {
	s.Shards += o.Shards
	if o.WindowStartNS > s.WindowStartNS {
		s.WindowStartNS = o.WindowStartNS
	}
	s.Segments += o.Segments
	s.C.Add(o.C)
	if len(o.Ops) == 0 {
		return
	}
	if s.Ops == nil {
		s.Ops = make(map[string]OpStats, len(o.Ops))
	}
	for _, name := range SortedOpNames(o.Ops) {
		st := s.Ops[name]
		st.add(o.Ops[name])
		s.Ops[name] = st
	}
}

// SortedOpNames returns the map's keys in sorted order — the mandated
// iteration order wherever per-class stats are merged, encoded, or
// rendered.
func SortedOpNames(ops map[string]OpStats) []string {
	names := make([]string, 0, len(ops))
	for name := range ops {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
