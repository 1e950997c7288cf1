package array

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"almanac/internal/core"
	"almanac/internal/obs"
	"almanac/internal/timekits"
	"almanac/internal/trace"
	"almanac/internal/vclock"
)

// TestOneShardArrayIsIdentity drives one seeded op stream against a bare
// TimeSSD with its TimeKits and against Assemble of a twin device, and
// requires every answer to be the same: read data and completion times,
// every Table-1 query, rollback counts, counters, the obs snapshot and
// the trace (in the array's completion order). It is what lets the protocol server front a single device as
// a 1-shard array instead of keeping a second back end. The host is
// lockstep (each op is issued after the previous one completed), as a
// synchronous client is; error text is not compared, only whether the op
// failed — the array words range errors its own way.
func TestOneShardArrayIsIdentity(t *testing.T) {
	dev, err := core.New(shardConfig())
	if err != nil {
		t.Fatal(err)
	}
	kit := timekits.New(dev)
	twin, err := core.New(shardConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev.Obs().SetEnabled(true)
	twin.Obs().SetEnabled(true)
	arr, err := Assemble([]*core.TimeSSD{twin})
	if err != nil {
		t.Fatal(err)
	}
	defer arr.Close()

	const hot = 96 // LPAs the stream touches; small enough that GC and delta chains form
	rng := rand.New(rand.NewSource(20190325))
	ps := dev.PageSize()
	at := vclock.Time(vclock.Second)
	var stamps []vclock.Time // issue times seen so far: travel targets
	past := func() vclock.Time {
		if len(stamps) == 0 {
			return 0
		}
		return stamps[rng.Intn(len(stamps))]
	}
	span := func() (uint64, int) {
		addr := uint64(rng.Intn(hot))
		return addr, 1 + rng.Intn(min(8, hot-int(addr)))
	}
	// same checks one op's pair of answers and moves the host clock past
	// the completion.
	same := func(i int, op string, got, want any, gotDone, wantDone vclock.Time, gotErr, wantErr error) {
		t.Helper()
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("op %d %s: array err %v, device err %v", i, op, gotErr, wantErr)
		}
		if gotErr == nil && gotDone != wantDone {
			t.Fatalf("op %d %s: array done %v, device done %v", i, op, gotDone, wantDone)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d %s: answers differ:\n array  %+v\n device %+v", i, op, got, want)
		}
		if wantErr == nil && wantDone > at {
			at = wantDone
		}
	}

	for i := 0; i < 4000; i++ {
		at = at.Add(vclock.Duration(1+rng.Intn(2000)) * vclock.Millisecond)
		stamps = append(stamps, at)
		switch k := rng.Intn(100); {
		case k < 55:
			lpa := uint64(rng.Intn(hot))
			data := make([]byte, ps)
			rng.Read(data[:1+rng.Intn(32)]) // mostly-zero pages with a changing head: delta-friendly
			wd, werr := dev.Write(lpa, data, at)
			gd, gerr := arr.Write(lpa, data, at)
			same(i, "Write", nil, nil, gd, wd, gerr, werr)
		case k < 75:
			lpa := uint64(rng.Intn(hot))
			want, wd, werr := dev.Read(lpa, at)
			got, gd, gerr := arr.Read(lpa, at)
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d Read(%d): data differs", i, lpa)
			}
			same(i, "Read", nil, nil, gd, wd, gerr, werr)
		case k < 80:
			lpa := uint64(rng.Intn(hot))
			wd, werr := dev.Trim(lpa, at)
			gd, gerr := arr.Trim(lpa, at)
			same(i, "Trim", nil, nil, gd, wd, gerr, werr)
		case k < 83:
			addr, cnt := span()
			when := past()
			want, werr := kit.AddrQuery(addr, cnt, when, at)
			got, gerr := arr.AddrQuery(addr, cnt, when, at)
			same(i, "AddrQuery", got.Value, want.Value, got.Done, want.Done, gerr, werr)
		case k < 86:
			addr, cnt := span()
			t1, t2 := past(), past()
			if t2 < t1 {
				t1, t2 = t2, t1
			}
			want, werr := kit.AddrQueryRange(addr, cnt, t1, t2, at)
			got, gerr := arr.AddrQueryRange(addr, cnt, t1, t2, at)
			same(i, "AddrQueryRange", got.Value, want.Value, got.Done, want.Done, gerr, werr)
		case k < 89:
			addr, cnt := span()
			want, werr := kit.AddrQueryAll(addr, cnt, at)
			got, gerr := arr.AddrQueryAll(addr, cnt, at)
			same(i, "AddrQueryAll", got.Value, want.Value, got.Done, want.Done, gerr, werr)
		case k < 91:
			when := past()
			want, werr := kit.TimeQuery(when, at)
			got, gerr := arr.TimeQuery(when, at)
			same(i, "TimeQuery", got.Value, want.Value, got.Done, want.Done, gerr, werr)
		case k < 93:
			t1, t2 := past(), past()
			if t2 < t1 {
				t1, t2 = t2, t1
			}
			want, werr := kit.TimeQueryRange(t1, t2, at)
			got, gerr := arr.TimeQueryRange(t1, t2, at)
			same(i, "TimeQueryRange", got.Value, want.Value, got.Done, want.Done, gerr, werr)
		case k < 94:
			want, werr := kit.TimeQueryAll(at)
			got, gerr := arr.TimeQueryAll(at)
			same(i, "TimeQueryAll", got.Value, want.Value, got.Done, want.Done, gerr, werr)
		case k < 97:
			addr, cnt := span()
			when := past()
			want, werr := kit.RollBack(addr, cnt, when, at)
			got, gerr := arr.RollBack(addr, cnt, when, at)
			same(i, "RollBack", got.Value, want.Value, got.Done, want.Done, gerr, werr)
		case k < 99:
			lpas := make([]uint64, 1+rng.Intn(6))
			for j := range lpas {
				lpas[j] = uint64(rng.Intn(hot))
			}
			threads, when := 1+rng.Intn(3), past()
			want, werr := kit.RollBackParallel(lpas, threads, when, at)
			got, gerr := arr.RollBackParallel(lpas, threads, when, at)
			same(i, "RollBackParallel", got.Value, want.Value, got.Done, want.Done, gerr, werr)
		default:
			when := past()
			want, werr := kit.RollBackAll(when, at)
			got, gerr := arr.RollBackAll(when, at)
			same(i, "RollBackAll", got.Value, want.Value, got.Done, want.Done, gerr, werr)
		}
	}

	if got, want := arr.StatsView(), dev.Counters(); got != want {
		t.Fatalf("counters differ:\n array  %+v\n device %+v", got, want)
	}
	if got, want := arr.RetentionWindowStart(), dev.RetentionWindowStart(); got != want {
		t.Fatalf("window start: array %v, device %v", got, want)
	}
	if got, want := virtOnly(arr.ObsSnapshot()), virtOnly(dev.Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatalf("obs snapshots differ:\n array  %+v\n device %+v", got, want)
	}
	// The array serves the trace in completion order (ties in record
	// order); a ring is in record order, which RollBackParallel's
	// overlapping host threads make a different thing.
	ring := dev.Obs().Trace(0)
	sort.SliceStable(ring, func(i, j int) bool { return ring[i].DoneNS < ring[j].DoneNS })
	for _, max := range []int{0, 16} {
		want := ring[len(ring)-min(len(ring), max):]
		if max == 0 {
			want = ring
		}
		if got := arr.TraceEvents(max); !reflect.DeepEqual(got, want) {
			t.Fatalf("trace(%d) differs: array %d events, device %d", max, len(got), len(want))
		}
	}
	if dev.Counters().GCRuns == 0 || dev.Counters().DeltasCreated == 0 {
		t.Fatalf("stream too gentle to mean anything: %+v", dev.Counters())
	}
}

// virtOnly drops a snapshot's wall-clock histograms: they are host time and
// differ run to run, and everything else in the snapshot is simulation
// state.
func virtOnly(s obs.Snapshot) obs.Snapshot {
	for name, st := range s.Ops {
		st.Wall = obs.HistSnapshot{}
		s.Ops[name] = st
	}
	return s
}

// TestOneShardReplayIsIdentity replays one seeded trace through Replay on a
// 1-shard Assemble and through trace.Replay on a bare twin device, and
// requires the same run: RunStats (latencies included), counters, window
// start and obs snapshot. The trace exercises each replay rule — multi-page
// trims (chained), arrival gaps past the idle threshold (background
// compression), and refused writes (ErrRetentionFull, counted, not fatal).
func TestOneShardReplayIsIdentity(t *testing.T) {
	cfg := shardConfig()
	cfg.MinRetention = 10 * vclock.Second
	dev, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev.Obs().SetEnabled(true)
	twin.Obs().SetEnabled(true)
	arr, err := Assemble([]*core.TimeSSD{twin})
	if err != nil {
		t.Fatal(err)
	}
	defer arr.Close()

	footprint := uint64(dev.LogicalPages()) / 2
	devGen := trace.NewContentGen(dev.PageSize(), trace.ContentSimilar, 11)
	arrGen := trace.NewContentGen(dev.PageSize(), trace.ContentSimilar, 11)
	warm, err := trace.Fill(dev, footprint, devGen, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Fill(arr, footprint, arrGen, 0); err != nil {
		t.Fatal(err)
	}

	// Bursts of mixed requests with idle gaps between them, then a write
	// flood packed inside the retention bound, then mixed bursts again.
	rng := rand.New(rand.NewSource(20190326))
	at := warm.Add(vclock.Second)
	var reqs []trace.Request
	add := func(op trace.Op, gap vclock.Duration) {
		at = at.Add(gap)
		pages := 1 + rng.Intn(4)
		reqs = append(reqs, trace.Request{At: at, Op: op, LPA: uint64(rng.Int63n(int64(footprint))), Pages: pages})
	}
	mixed := func(bursts int) {
		for b := 0; b < bursts; b++ {
			at = at.Add(vclock.Duration(20+rng.Intn(3000)) * vclock.Millisecond)
			for i := 0; i < 1+rng.Intn(24); i++ {
				op := trace.OpWrite
				switch k := rng.Intn(10); {
				case k < 3:
					op = trace.OpRead
				case k < 4:
					op = trace.OpTrim
				}
				add(op, vclock.Duration(rng.Intn(2000))*vclock.Microsecond)
			}
		}
	}
	mixed(60)
	for i := 0; i < 2*dev.LogicalPages(); i++ {
		add(trace.OpWrite, 100*vclock.Microsecond)
	}
	mixed(60)

	want, werr := trace.Replay(dev, reqs, devGen)
	got, gerr := Replay(arr, reqs, arrGen)
	if werr != nil || gerr != nil {
		t.Fatalf("replay errors: array %v, device %v", gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run stats differ:\n array  %+v\n device %+v", *got, *want)
	}
	if got, want := arr.StatsView(), dev.Counters(); got != want {
		t.Fatalf("counters differ:\n array  %+v\n device %+v", got, want)
	}
	if got, want := arr.RetentionWindowStart(), dev.RetentionWindowStart(); got != want {
		t.Fatalf("window start: array %v, device %v", got, want)
	}
	if got, want := virtOnly(arr.ObsSnapshot()), virtOnly(dev.Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatalf("obs snapshots differ:\n array  %+v\n device %+v", got, want)
	}
	if want.Trims == 0 || want.Errors == 0 || dev.Counters().IdleCompressions == 0 {
		t.Fatalf("trace too gentle to mean anything: %d trims, %d errors, %d idle compressions",
			want.Trims, want.Errors, dev.Counters().IdleCompressions)
	}
}
