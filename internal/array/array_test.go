package array

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/obs"
	"almanac/internal/timekits"
	"almanac/internal/trace"
	"almanac/internal/vclock"
)

func shardConfig() core.Config {
	fc := flash.DefaultConfig()
	fc.Channels = 2
	fc.ChipsPerChannel = 1
	fc.BlocksPerPlane = 32
	fc.PagesPerBlock = 16
	fc.PageSize = 512
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0
	return cfg
}

func newTestArray(t testing.TB, shards int) *Array {
	t.Helper()
	a, err := New(Config{Shards: shards, Shard: shardConfig()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

func testPage(a *Array, b byte) []byte {
	p := make([]byte, a.PageSize())
	for i := range p {
		p[i] = b
	}
	return p
}

func TestLocateRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		a := newTestArray(t, n)
		perShard := make([]int, n)
		for lpa := uint64(0); lpa < uint64(a.LogicalPages()); lpa++ {
			s, local := a.Locate(lpa)
			if g := a.GlobalLPA(s, local); g != lpa {
				t.Fatalf("n=%d: GlobalLPA(Locate(%d)) = %d", n, lpa, g)
			}
			if local >= uint64(a.LogicalPages()/n) {
				t.Fatalf("n=%d: lpa %d maps to local %d beyond shard capacity", n, lpa, local)
			}
			perShard[s]++
		}
		for s, c := range perShard {
			if c != a.LogicalPages()/n {
				t.Fatalf("n=%d: shard %d owns %d pages, want %d", n, s, c, a.LogicalPages()/n)
			}
		}
	}
}

func TestLocalRangeCoversStripe(t *testing.T) {
	a := newTestArray(t, 4)
	for _, r := range []struct {
		addr uint64
		cnt  int
	}{{0, 1}, {1, 1}, {0, 4}, {3, 5}, {7, 11}, {2, 64}} {
		covered := make(map[uint64]bool)
		for s := range a.shards {
			lo, n, ok := a.localRange(r.addr, r.cnt, s)
			if !ok {
				continue
			}
			for i := 0; i < n; i++ {
				g := a.GlobalLPA(s, lo+uint64(i))
				if g < r.addr || g >= r.addr+uint64(r.cnt) {
					t.Fatalf("range [%d,+%d) shard %d: local %d maps outside to %d", r.addr, r.cnt, s, lo+uint64(i), g)
				}
				if covered[g] {
					t.Fatalf("range [%d,+%d): lpa %d covered twice", r.addr, r.cnt, g)
				}
				covered[g] = true
			}
		}
		if len(covered) != r.cnt {
			t.Fatalf("range [%d,+%d): covered %d of %d pages", r.addr, r.cnt, len(covered), r.cnt)
		}
	}
}

// TestStripeRoundTrip writes distinct content to every global LPA and reads
// it back: the stripe mapping must be a bijection end to end, and host
// writes must spread evenly over the shards.
func TestStripeRoundTrip(t *testing.T) {
	a := newTestArray(t, 4)
	at := vclock.Time(vclock.Second)
	total := uint64(a.LogicalPages())
	for lpa := uint64(0); lpa < total; lpa++ {
		done, err := a.Write(lpa, testPage(a, byte(lpa%251)), at)
		if err != nil {
			t.Fatalf("write %d: %v", lpa, err)
		}
		at = done.Add(vclock.Millisecond)
	}
	for lpa := uint64(0); lpa < total; lpa++ {
		data, _, err := a.Read(lpa, at)
		if err != nil {
			t.Fatalf("read %d: %v", lpa, err)
		}
		if !bytes.Equal(data, testPage(a, byte(lpa%251))) {
			t.Fatalf("lpa %d: content corrupted by striping", lpa)
		}
	}
	for i := 0; i < a.Shards(); i++ {
		if w := a.ShardSnapshot(i).C.HostPageWrites; w != int64(total)/int64(a.Shards()) {
			t.Fatalf("shard %d absorbed %d writes, want %d", i, w, total/uint64(a.Shards()))
		}
	}
	if st := a.StatsView(); st.HostPageWrites != int64(total) || st.HostPageReads != int64(total) {
		t.Fatalf("aggregate stats wrong: %+v", st)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTimeQueryRangeMergeOrdering exercises the cross-shard merge: updates
// land on all four shards at interleaved times (including a trim and a
// cross-shard timestamp tie) and the merged stream must come out in
// ascending global LPA order — the order timekits answers in on one device.
func TestTimeQueryRangeMergeOrdering(t *testing.T) {
	a := newTestArray(t, 4)
	h := func(n int) vclock.Time { return vclock.Time(n) * vclock.Time(vclock.Hour) }
	// LPA k lives on shard k%4. Writes at distinct hours, newest on a
	// middle shard, and LPAs 5 and 6 (shards 1 and 2) share hour 5, so
	// neither shard order nor time order is the LPA order.
	writes := []struct {
		lpa uint64
		at  vclock.Time
	}{
		{0, h(1)}, {1, h(3)}, {2, h(2)}, {3, h(4)},
		{5, h(5)}, {6, h(5)},
	}
	for _, w := range writes {
		if _, err := a.Write(w.lpa, testPage(a, byte(w.lpa+1)), w.at); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Trim(2, h(6)); err != nil { // newest event of all, on shard 2
		t.Fatal(err)
	}
	now := h(7)

	res, err := a.TimeQueryRange(0, now, now)
	if err != nil {
		t.Fatal(err)
	}
	var gotLPAs []uint64
	for _, r := range res.Value {
		gotLPAs = append(gotLPAs, r.LPA)
	}
	want := []uint64{0, 1, 2, 3, 5, 6}
	if !reflect.DeepEqual(gotLPAs, want) {
		t.Fatalf("merge order: got %v want %v", gotLPAs, want)
	}
	// Times[0] is a record's newest event: LPA 2's is the trim.
	if res.Value[2].Times[0] != h(6) {
		t.Fatalf("trim timestamp not merged: %v", res.Value[2].Times)
	}
	if res.Done <= now {
		t.Fatal("cross-shard query charged no device time")
	}

	// A sub-range excludes events outside it on every shard.
	res, err = a.TimeQueryRange(h(2), h(4), now)
	if err != nil {
		t.Fatal(err)
	}
	gotLPAs = gotLPAs[:0]
	for _, r := range res.Value {
		gotLPAs = append(gotLPAs, r.LPA)
	}
	if want := []uint64{1, 2, 3}; !reflect.DeepEqual(gotLPAs, want) {
		t.Fatalf("sub-range merge: got %v want %v", gotLPAs, want)
	}
}

// TestRollBackAllMatchesSingleDevice replays one write history against a
// 4-shard array and a single TimeSSD, rolls both back to the same shared
// timestamp, and requires identical per-LPA contents: the acceptance check
// that one virtual timestamp names a consistent cross-shard point.
func TestRollBackAllMatchesSingleDevice(t *testing.T) {
	a := newTestArray(t, 4)
	single, err := core.New(shardConfig())
	if err != nil {
		t.Fatal(err)
	}
	kit := timekits.New(single)

	span := uint64(16) // fits the single device; stripes over every shard
	h := func(n int) vclock.Time { return vclock.Time(n) * vclock.Time(vclock.Hour) }
	// Three generations; generation g rewrites every even-offset page (and
	// all pages in g1) so some LPAs have deeper histories than others.
	for g := 1; g <= 3; g++ {
		for lpa := uint64(0); lpa < span; lpa++ {
			if g > 1 && lpa%2 == 1 {
				continue
			}
			data := testPage(a, byte(16*g)+byte(lpa))
			if _, err := a.Write(lpa, data, h(g)); err != nil {
				t.Fatal(err)
			}
			if _, err := single.Write(lpa, data, h(g)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Travel both to just after generation 2.
	target, now := h(2).Add(vclock.Minute), h(5)
	ares, err := a.RollBackAll(target, now)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := kit.RollBackAll(target, now)
	if err != nil {
		t.Fatal(err)
	}
	if ares.Value != sres.Value {
		t.Fatalf("array changed %d pages, single device %d", ares.Value, sres.Value)
	}
	after := now.Add(vclock.Hour)
	for lpa := uint64(0); lpa < span; lpa++ {
		got, _, err := a.Read(lpa, after)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := single.Read(lpa, after)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("lpa %d: array rollback diverges from single device (got %x… want %x…)", lpa, got[0], want[0])
		}
		// Both must equal generation 2's content (g1 content on odd LPAs).
		g := byte(32)
		if lpa%2 == 1 {
			g = 16
		}
		if got[0] != g+byte(lpa) {
			t.Fatalf("lpa %d: rollback restored wrong generation (%x)", lpa, got[0])
		}
	}
}

// TestDeterministicReplay runs the same generated trace twice on fresh
// 4-shard arrays: aggregate stats and every per-shard snapshot must be
// bit-identical regardless of how the scheduler interleaved the workers.
func TestDeterministicReplay(t *testing.T) {
	run := func() (obs.Counters, []Snapshot, *trace.RunStats) {
		a := newTestArray(t, 4)
		gen := trace.NewContentGen(a.PageSize(), trace.ContentSimilar, 7)
		footprint := uint64(a.LogicalPages()) / 2
		warmEnd, err := trace.Fill(a, footprint, gen, 0)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := trace.Generate(trace.Spec{
			Name: "det", Seed: 7, Requests: 600,
			Duration:   vclock.Duration(600) * 100 * vclock.Microsecond,
			WriteRatio: 0.8, TrimRatio: 0.05, Footprint: footprint,
			AvgPages: 2, HotFraction: 0.1, HotAccess: 0.7, BurstLen: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		shift := warmEnd.Add(vclock.Second)
		for i := range reqs {
			reqs[i].At = reqs[i].At + shift
		}
		st, err := Replay(a, reqs, gen)
		if err != nil {
			t.Fatal(err)
		}
		snaps := make([]Snapshot, a.Shards())
		for i := range snaps {
			snaps[i] = a.ShardSnapshot(i)
		}
		return a.StatsView(), snaps, st
	}

	st1, snaps1, run1 := run()
	st2, snaps2, run2 := run()
	if st1 != st2 {
		t.Fatalf("aggregate stats differ between identical runs:\n%+v\n%+v", st1, st2)
	}
	if !reflect.DeepEqual(snaps1, snaps2) {
		t.Fatalf("per-shard snapshots differ between identical runs")
	}
	if run1.End != run2.End || run1.Errors != run2.Errors {
		t.Fatalf("replay outcomes differ: end %v/%v errors %d/%d", run1.End, run2.End, run1.Errors, run2.Errors)
	}
	if st1.HostPageWrites == 0 || st1.TrimOps == 0 {
		t.Fatalf("trace exercised nothing: %+v", st1)
	}
}

// TestObsConcurrentWithIO hammers the observability layer from every
// side at once — writers and readers on all shards, plus goroutines
// pulling array-wide snapshots and traces mid-flight. Run under -race
// this is the proof that registries need no caller locking; the final
// quiesced snapshot must satisfy the count-consistency invariant.
func TestObsConcurrentWithIO(t *testing.T) {
	a := newTestArray(t, 4)
	a.SetObsEnabled(true)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := a.ObsSnapshot()
				if snap.Shards != 4 {
					t.Errorf("mid-flight snapshot has %d shards", snap.Shards)
					return
				}
				_ = a.TraceEvents(16)
			}
		}()
	}

	workers := 4
	perWorker := uint64(a.LogicalPages() / workers)
	iters := 200
	if int(perWorker) < iters {
		iters = int(perWorker)
	}
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			base := uint64(w) * perWorker
			at := vclock.Time(vclock.Second)
			for i := 0; i < iters; i++ {
				lpa := base + uint64(i)
				done, err := a.Write(lpa, testPage(a, byte(i)), at)
				if err != nil {
					t.Errorf("worker %d write %d: %v", w, lpa, err)
					return
				}
				if _, _, err := a.Read(lpa, done.Add(vclock.Second)); err != nil {
					t.Errorf("worker %d read %d: %v", w, lpa, err)
					return
				}
				at = done.Add(2 * vclock.Second)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	snap := a.ObsSnapshot()
	total := int64(workers * iters)
	if snap.C.HostPageWrites != total || snap.C.HostPageReads != total {
		t.Fatalf("counters: %d writes / %d reads, want %d each", snap.C.HostPageWrites, snap.C.HostPageReads, total)
	}
	if got := snap.Ops["host-write"].Count; got != total {
		t.Fatalf("host-write histogram count %d != %d writes", got, total)
	}
	if got := snap.Ops["host-read"].Count; got != total {
		t.Fatalf("host-read histogram count %d != %d reads", got, total)
	}
	if got := snap.Ops["flash-program"].Count; got != snap.C.FlashPrograms {
		t.Fatalf("flash-program histogram count %d != counter %d", got, snap.C.FlashPrograms)
	}
	evs := a.TraceEvents(0)
	if len(evs) == 0 {
		t.Fatal("no trace events after concurrent IO")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].DoneNS < evs[i-1].DoneNS {
			t.Fatalf("merged trace not chronological at %d", i)
		}
	}
}

func TestSubmitAfterClose(t *testing.T) {
	a := newTestArray(t, 2)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(0, testPage(a, 1), 0); err != ErrClosed {
		t.Fatalf("write after close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestAddrQueryAcrossShards(t *testing.T) {
	a := newTestArray(t, 4)
	h := func(n int) vclock.Time { return vclock.Time(n) * vclock.Time(vclock.Hour) }
	for lpa := uint64(0); lpa < 8; lpa++ {
		for g := 1; g <= 2; g++ {
			if _, err := a.Write(lpa, testPage(a, byte(16*g)+byte(lpa)), h(g)); err != nil {
				t.Fatal(err)
			}
		}
	}
	now := h(3)
	res, err := a.AddrQuery(2, 5, h(1).Add(vclock.Minute), now)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Value) != 5 {
		t.Fatalf("AddrQuery returned %d LPAs, want 5", len(res.Value))
	}
	for i, pv := range res.Value {
		if pv.LPA != uint64(2+i) {
			t.Fatalf("result %d: lpa %d, want ascending from 2", i, pv.LPA)
		}
		if len(pv.Versions) != 1 || pv.Versions[0].Data[0] != 16+byte(pv.LPA) {
			t.Fatalf("lpa %d: wrong generation at t", pv.LPA)
		}
	}
}

// TestReadSurvivesLaterPrograms is the torn-read regression: a read is
// queued, and behind it on the same shard enough writes to cycle every
// flash block, so GC erases and re-programs the page the read was served
// from before the submitter looks at the result. Cmd.Out must still hold
// the bytes the read saw.
func TestReadSurvivesLaterPrograms(t *testing.T) {
	a := newTestArray(t, 1)
	want := testPage(a, 0xa5)
	at := vclock.Time(vclock.Second)
	if _, err := a.Write(7, want, at); err != nil {
		t.Fatal(err)
	}
	read := new(Cmd)
	read.SetRead(7, at.Add(vclock.Second))
	if err := a.Submit(read); err != nil {
		t.Fatal(err)
	}
	physical := shardConfig().FTL.Flash.TotalPages()
	writes := make([]Cmd, 3*physical)
	for i := range writes {
		at = at.Add(vclock.Minute)
		writes[i].SetWrite(uint64(i%64), testPage(a, byte(i)|1), at)
		if err := a.Submit(&writes[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range writes {
		if writes[i].Wait(); writes[i].Err != nil {
			t.Fatalf("write %d: %v", i, writes[i].Err)
		}
	}
	read.Wait()
	if read.Err != nil {
		t.Fatal(read.Err)
	}
	if !bytes.Equal(read.Out, want) {
		t.Fatalf("read result changed under later programs: got %#x.., want %#x..", read.Out[0], want[0])
	}

	// The copy lives in the Cmd and survives reset: a recycled Cmd reads
	// into the same backing store.
	before := &read.Out[0]
	read.SetRead(7, at.Add(vclock.Second))
	if err := a.Submit(read); err != nil {
		t.Fatal(err)
	}
	read.Wait()
	if read.Err != nil || &read.Out[0] != before {
		t.Fatalf("recycled read (err %v) did not reuse the Cmd's buffer", read.Err)
	}
}

// TestRunInlineOnlyWhenIdle pins when a command executes on its submitter:
// on an idle shard Run completes it before returning and never gives it a
// completion channel; while the worker is busy, or a command is queued, it
// queues behind them; and once the queue has drained the shard is idle
// again.
func TestRunInlineOnlyWhenIdle(t *testing.T) {
	a := newTestArray(t, 1)
	at := vclock.Time(vclock.Second)
	w := new(Cmd)
	w.SetWrite(3, testPage(a, 1), at)
	if err := a.Run(w); err != nil {
		t.Fatal(err)
	}
	if !w.inline || w.done != nil || w.Err != nil {
		t.Fatalf("idle shard: inline=%v done=%v err=%v, want an inline run", w.inline, w.done, w.Err)
	}
	w.Wait() // returns at once: nothing to consume

	// Park the worker inside a command.
	entered, release := make(chan struct{}), make(chan struct{})
	hold := &Cmd{Kind: opFunc, fn: func(*core.TimeSSD, *timekits.Kit) { close(entered); <-release }}
	if err := a.submitTo(0, hold); err != nil {
		t.Fatal(err)
	}
	<-entered
	r := new(Cmd)
	r.SetRead(3, at.Add(vclock.Second))
	if err := a.Run(r); err != nil {
		t.Fatal(err)
	}
	if r.inline {
		t.Fatal("Run executed inline while the worker held the shard")
	}
	close(release)
	hold.Wait()
	r.Wait()
	if r.Err != nil || r.Out[0] != 1 {
		t.Fatalf("queued read: %v %v", r.Out, r.Err)
	}

	r.SetRead(3, at.Add(2*vclock.Second))
	if err := a.Run(r); err != nil {
		t.Fatal(err)
	}
	if !r.inline {
		t.Fatal("shard did not return to idle after its queue drained")
	}
}

// TestInlineNeverOvertakesQueued is per-submitter FIFO across the two
// paths: a submitter queues writes to one LPA without waiting and then
// reads it synchronously. The read may run inline only after every one of
// those writes has executed, so it always sees the last of them — and a
// synchronous write followed by a queued read is seen by that read.
func TestInlineNeverOvertakesQueued(t *testing.T) {
	a := newTestArray(t, 2)
	at := vclock.Time(vclock.Second)
	cmds := make([]Cmd, 4)
	var rd Cmd
	for i := 0; i < 2000; i++ {
		lpa := uint64(i % 16)
		for j := range cmds {
			at = at.Add(vclock.Millisecond)
			cmds[j].SetWrite(lpa, testPage(a, byte(i+j)), at)
			if err := a.Submit(&cmds[j]); err != nil {
				t.Fatal(err)
			}
		}
		at = at.Add(vclock.Millisecond)
		got, _, err := a.Read(lpa, at)
		if want := byte(i + len(cmds) - 1); err != nil || got[0] != want {
			t.Fatalf("iteration %d: synchronous read saw %d (err %v), want the last queued write %d", i, got[0], err, want)
		}
		for j := range cmds {
			cmds[j].Wait()
		}

		at = at.Add(vclock.Millisecond)
		if _, err := a.Write(lpa, testPage(a, byte(i)^0xff), at); err != nil {
			t.Fatal(err)
		}
		at = at.Add(vclock.Millisecond)
		rd.SetRead(lpa, at)
		if err := a.Submit(&rd); err != nil {
			t.Fatal(err)
		}
		rd.Wait()
		if rd.Err != nil || rd.Out[0] != byte(i)^0xff {
			t.Fatalf("iteration %d: queued read saw %d (err %v), want the synchronous write %d", i, rd.Out[0], rd.Err, byte(i)^0xff)
		}
	}
}

// TestInlineAndWorkerExcludeEachOther races the two ways onto one device —
// synchronous callers, queued submitters and fan-out queries on a 1-shard
// array — for the race detector to find any moment two goroutines are on
// it at once, then checks nothing was lost.
func TestInlineAndWorkerExcludeEachOther(t *testing.T) {
	a := newTestArray(t, 1)
	const workers, iters = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			at := vclock.Time(vclock.Second)
			var c Cmd
			for i := 0; i < iters; i++ {
				at = at.Add(vclock.Millisecond)
				lpa := uint64(w*8 + i%8)
				switch (w + i) % 3 {
				case 0:
					if _, err := a.Write(lpa, testPage(a, byte(i)), at); err != nil {
						t.Error(err)
					}
				case 1:
					c.SetWrite(lpa, testPage(a, byte(i)), at)
					if err := a.Submit(&c); err != nil {
						t.Error(err)
					}
					c.Wait()
				default:
					if _, err := a.AddrQueryAll(lpa, 1, at); err != nil {
						t.Error(err)
					}
					_ = a.StatsView()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := a.StatsView().HostPageWrites, int64(workers*iters*2/3); got != want {
		t.Fatalf("%d host writes published, want %d", got, want)
	}
}

// TestCloseWaitsForInlineOwner: Close's contract is that nothing executes
// on a device once it returns, and an inline owner holds no queue slot and
// no closeMu — Close has to wait for it on the shard itself.
func TestCloseWaitsForInlineOwner(t *testing.T) {
	a := newTestArray(t, 1)
	entered, release, closed := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		c := &Cmd{Kind: opFunc, fn: func(*core.TimeSSD, *timekits.Kit) { close(entered); <-release }}
		if !a.runInline(a.shards[0], c) {
			t.Error("runInline refused an idle shard")
		}
	}()
	<-entered
	go func() { _ = a.Close(); close(closed) }()
	for !a.closed.Load() {
		runtime.Gosched()
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a caller was still executing on the shard")
	default:
	}
	close(release)
	<-closed
	if _, err := a.Write(0, testPage(a, 1), 0); err != ErrClosed {
		t.Fatalf("inline write after close: %v", err)
	}
}

// TestInlineReadSurvivesLaterPrograms is TestReadSurvivesLaterPrograms for
// the caller-runs path: the bytes a synchronous Read returns are a copy
// made while the caller held the shard, not an alias of the flash arena.
func TestInlineReadSurvivesLaterPrograms(t *testing.T) {
	a := newTestArray(t, 1)
	want := testPage(a, 0xa5)
	at := vclock.Time(vclock.Second)
	if _, err := a.Write(7, want, at); err != nil {
		t.Fatal(err)
	}
	got, _, err := a.Read(7, at.Add(vclock.Second))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*shardConfig().FTL.Flash.TotalPages(); i++ {
		at = at.Add(vclock.Minute)
		if _, err := a.Write(uint64(i%64), testPage(a, byte(i)|1), at); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read result changed under later programs: got %#x.., want %#x..", got[0], want[0])
	}
}
