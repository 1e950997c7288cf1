package service

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"almanac/internal/array"
	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/obs"
	"almanac/internal/vclock"
)

func newService(t testing.TB, shards int) *Service {
	t.Helper()
	fc := flash.DefaultConfig()
	fc.Channels = 2
	fc.ChipsPerChannel = 1
	fc.BlocksPerPlane = 32
	fc.PagesPerBlock = 16
	fc.PageSize = 512
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0
	arr, err := array.New(array.Config{Shards: shards, Shard: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { arr.Close() })
	return New(arr)
}

func pattern(b byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestVolumeLifecycle(t *testing.T) {
	s := newService(t, 2)
	at := vclock.Time(vclock.Hour)

	v, err := s.Create("alpha", "k1", 32, 0, at)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("alpha", "k2", 32, 0, at); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := s.Create("", "k", 8, 0, at); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := s.Create("huge", "k", uint64(s.arr.LogicalPages())+1, 0, at); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized create: %v", err)
	}

	if _, err := s.Attach("alpha", "nope"); !errors.Is(err, ErrAuth) {
		t.Fatalf("wrong key attach: %v", err)
	}
	if _, err := s.Attach("ghost", "k1"); !errors.Is(err, ErrNoVolume) {
		t.Fatalf("missing attach: %v", err)
	}
	h, err := s.Attach("alpha", "k1")
	if err != nil {
		t.Fatal(err)
	}
	if h != v {
		t.Fatal("attach returned a different handle")
	}

	ps := s.arr.PageSize()
	if _, err := v.Write(2, pattern(0xaa, ps), at.Add(vclock.Second)); err != nil {
		t.Fatal(err)
	}
	data, _, err := v.Read(2, at.Add(vclock.Minute))
	if err != nil || !bytes.Equal(data, pattern(0xaa, ps)) {
		t.Fatalf("read back: %v", err)
	}
	if _, err := v.Write(uint64(v.Pages()), pattern(1, ps), at.Add(vclock.Minute)); !errors.Is(err, ftl.ErrOutOfRange) {
		t.Fatalf("out-of-range write: %v", err)
	}

	if _, err := s.Delete("alpha", "nope", at.Add(2*vclock.Minute)); !errors.Is(err, ErrAuth) {
		t.Fatalf("wrong key delete: %v", err)
	}
	if _, err := s.Delete("alpha", "k1", at.Add(2*vclock.Minute)); err != nil {
		t.Fatal(err)
	}
	// A handle held across the delete fails typed.
	if _, _, err := v.Read(2, at.Add(3*vclock.Minute)); !errors.Is(err, ErrNoVolume) {
		t.Fatalf("read on deleted volume: %v", err)
	}
	if _, err := s.Attach("alpha", "k1"); !errors.Is(err, ErrNoVolume) {
		t.Fatalf("attach after delete: %v", err)
	}
	if _, err := s.Delete("alpha", "k1", at); !errors.Is(err, ErrNoVolume) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestListOrderAndIDs(t *testing.T) {
	s := newService(t, 2)
	at := vclock.Time(vclock.Hour)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := s.Create(name, "k", 8, 0, at); err != nil {
			t.Fatal(err)
		}
	}
	infos := s.List()
	if len(infos) != 3 || infos[0].Name != "alpha" || infos[1].Name != "mid" || infos[2].Name != "zeta" {
		t.Fatalf("list order: %+v", infos)
	}
	// IDs are allocation-ordered and never reused.
	if infos[2].ID != 1 || infos[0].ID != 2 || infos[1].ID != 3 {
		t.Fatalf("ids: %+v", infos)
	}
	if _, err := s.Delete("mid", "k", at.Add(vclock.Second)); err != nil {
		t.Fatal(err)
	}
	v, err := s.Create("new", "k", 8, 0, at.Add(vclock.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if v.ID() != 4 {
		t.Fatalf("deleted id reused: %d", v.ID())
	}
	if got, ok := s.Lookup(v.ID()); !ok || got != v {
		t.Fatal("Lookup broken")
	}
	if _, ok := s.Lookup(3); ok {
		t.Fatal("Lookup found a deleted volume")
	}
}

// TestExtentReuseAndMerge drives the allocator: a freed extent is reused
// first-fit, and adjacent frees merge so a larger volume fits where two
// smaller ones sat.
func TestExtentReuseAndMerge(t *testing.T) {
	s := newService(t, 2)
	at := vclock.Time(vclock.Hour)
	a, err := s.Create("a", "k", 32, 0, at)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Create("b", "k", 32, 0, at)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Create("c", "k", 32, 0, at)
	if err != nil {
		t.Fatal(err)
	}
	if a.base != 0 || b.base != 32 || c.base != 64 {
		t.Fatalf("first-fit bases: %d %d %d", a.base, b.base, c.base)
	}

	if _, err := s.Delete("b", "k", at.Add(vclock.Second)); err != nil {
		t.Fatal(err)
	}
	d, err := s.Create("d", "k", 16, 0, at.Add(vclock.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if d.base != 32 {
		t.Fatalf("freed extent not reused first-fit: base %d", d.base)
	}

	// Free d and c — the three-way merge (d's remainder, d, c) must yield
	// one extent big enough for a 64-page volume at base 32.
	if _, err := s.Delete("d", "k", at.Add(2*vclock.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("c", "k", at.Add(3*vclock.Minute)); err != nil {
		t.Fatal(err)
	}
	e, err := s.Create("e", "k", 64, 0, at.Add(4*vclock.Minute))
	if err != nil {
		t.Fatalf("adjacent frees did not merge: %v", err)
	}
	if e.base != 32 {
		t.Fatalf("merged extent base %d, want 32", e.base)
	}
}

// TestRollBackIsolation is the acceptance bar for per-volume time travel:
// rolling one volume back leaves every other volume's version history
// byte-identical.
func TestRollBackIsolation(t *testing.T) {
	s := newService(t, 4)
	ps := s.arr.PageSize()
	at := vclock.Time(vclock.Hour)
	v0, err := s.Create("v0", "k", 24, 0, at)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := s.Create("v1", "k", 24, 0, at)
	if err != nil {
		t.Fatal(err)
	}

	// Interleaved histories: two generations on both volumes.
	t1, t2 := at.Add(vclock.Minute), at.Add(2*vclock.Minute)
	for lpa := uint64(0); lpa < 8; lpa++ {
		if _, err := v0.Write(lpa, pattern(0x10+byte(lpa), ps), t1); err != nil {
			t.Fatal(err)
		}
		if _, err := v1.Write(lpa, pattern(0x50+byte(lpa), ps), t1); err != nil {
			t.Fatal(err)
		}
	}
	for lpa := uint64(0); lpa < 8; lpa++ {
		if _, err := v0.Write(lpa, pattern(0x20+byte(lpa), ps), t2); err != nil {
			t.Fatal(err)
		}
		if _, err := v1.Write(lpa, pattern(0x60+byte(lpa), ps), t2); err != nil {
			t.Fatal(err)
		}
	}

	before, err := v1.History(0, 24, at.Add(3*vclock.Minute))
	if err != nil {
		t.Fatal(err)
	}

	res, err := v0.RollBack(t1.Add(vclock.Second), at.Add(4*vclock.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value == 0 {
		t.Fatal("rollback changed nothing")
	}

	after, err := v1.History(0, 24, at.Add(5*vclock.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Value, after.Value) {
		t.Fatalf("v1 history disturbed by v0 rollback:\nbefore %+v\nafter  %+v", before.Value, after.Value)
	}

	// v0 really travelled: its pages read generation 1 again.
	for lpa := uint64(0); lpa < 8; lpa++ {
		data, _, err := v0.Read(lpa, at.Add(6*vclock.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != 0x10+byte(lpa) {
			t.Fatalf("v0 lpa %d = %#x after rollback, want %#x", lpa, data[0], 0x10+byte(lpa))
		}
		data, _, err = v1.Read(lpa, at.Add(6*vclock.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != 0x60+byte(lpa) {
			t.Fatalf("v1 lpa %d = %#x, rollback leaked across volumes", lpa, data[0])
		}
	}
}

func TestRetentionGatesAndBound(t *testing.T) {
	s := newService(t, 2)
	at := vclock.Time(48 * vclock.Hour)
	if s.RetentionBound() != 0 {
		t.Fatalf("fresh bound %v", s.RetentionBound())
	}
	v6, err := s.Create("six", "k", 16, 6*vclock.Hour, at)
	if err != nil {
		t.Fatal(err)
	}
	if s.RetentionBound() != 6*vclock.Hour {
		t.Fatalf("bound %v, want 6h", s.RetentionBound())
	}
	if _, err := s.Create("twelve", "k", 16, 12*vclock.Hour, at); err != nil {
		t.Fatal(err)
	}
	if s.RetentionBound() != 12*vclock.Hour {
		t.Fatalf("bound %v, want 12h", s.RetentionBound())
	}
	if _, err := s.Delete("twelve", "k", at.Add(vclock.Second)); err != nil {
		t.Fatal(err)
	}
	if s.RetentionBound() != 6*vclock.Hour {
		t.Fatalf("bound after delete %v, want 6h", s.RetentionBound())
	}

	// Travel gates: inside the promise passes the volume gate, before the
	// promise or before creation fails typed.
	now := at.Add(10 * vclock.Hour)
	ws := v6.WindowStart(now)
	if want := now.Add(-6 * vclock.Hour); ws != want {
		t.Fatalf("window start %v, want %v", ws, want)
	}
	if _, err := v6.AddrQuery(0, 4, now.Add(-7*vclock.Hour), now); !errors.Is(err, ErrBeforeWindow) {
		t.Fatalf("pre-window query: %v", err)
	}
	if _, err := v6.RollBack(at.Add(-vclock.Second), now); !errors.Is(err, ErrBeforeWindow) {
		t.Fatalf("pre-creation rollback: %v", err)
	}
	if _, err := v6.Write(0, pattern(1, s.arr.PageSize()), at.Add(-vclock.Minute)); !errors.Is(err, ErrBeforeWindow) {
		t.Fatalf("write before creation: %v", err)
	}
	if _, err := s.Create("neg", "k", 8, -vclock.Hour, at); err == nil {
		t.Fatal("negative retention accepted")
	}
}

// TestConcurrentLifecycleKeepsRetentionBound races volume creates and
// deletes with random promises on fresh arrays. Each lifecycle op reaches
// the shards as one queued command per shard, so without care a stale
// bound can land last on some shards; once the ops are done, every shard
// must hold the service's bound.
func TestConcurrentLifecycleKeepsRetentionBound(t *testing.T) {
	fc := flash.DefaultConfig()
	fc.Channels = 2
	fc.ChipsPerChannel = 1
	fc.BlocksPerPlane = 32
	fc.PagesPerBlock = 16
	fc.PageSize = 512
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0
	const trials, workers = 100, 8
	for trial := 0; trial < trials; trial++ {
		devs := make([]*core.TimeSSD, 4)
		for i := range devs {
			d, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			devs[i] = d
		}
		arr, err := array.Assemble(devs)
		if err != nil {
			t.Fatal(err)
		}
		s := New(arr)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(trial*workers + w)))
				at := vclock.Time(vclock.Hour)
				name := fmt.Sprintf("w%d", w)
				<-start
				for i := 0; i < 3; i++ {
					retention := vclock.Duration(1+rng.Intn(96)) * vclock.Hour
					if _, err := s.Create(name, "k", 1, retention, at); err != nil {
						t.Error(err)
						return
					}
					if rng.Intn(2) == 0 {
						return // the volume stays
					}
					if _, err := s.Delete(name, "k", at); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if err := arr.Close(); err != nil {
			t.Fatal(err)
		}
		want := s.RetentionBound()
		for i, d := range devs {
			if got := d.Config().MinRetention; got != want {
				t.Fatalf("trial %d: shard %d MinRetention %v, service bound %v", trial, i, got, want)
			}
		}
	}
}

// TestRecycledExtentHidesPriorTenant: delete scrubs the extent and the
// next tenant's window clamp hides what history physically survives.
func TestRecycledExtentHidesPriorTenant(t *testing.T) {
	s := newService(t, 2)
	ps := s.arr.PageSize()
	at := vclock.Time(vclock.Hour)
	a, err := s.Create("a", "k", 16, 0, at)
	if err != nil {
		t.Fatal(err)
	}
	for lpa := uint64(0); lpa < 16; lpa++ {
		if _, err := a.Write(lpa, pattern(0xee, ps), at.Add(vclock.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Delete("a", "k", at.Add(vclock.Minute)); err != nil {
		t.Fatal(err)
	}

	b, err := s.Create("b", "k2", 16, 0, at.Add(2*vclock.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if b.base != a.base {
		t.Fatalf("extent not recycled: %d vs %d", b.base, a.base)
	}
	// Current content: scrubbed (zero on read).
	data, _, err := b.Read(0, at.Add(3*vclock.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0 {
		t.Fatalf("prior tenant's live data leaked: %#x", data[0])
	}
	// History: nothing from before b's creation is visible.
	res, err := b.History(0, 16, at.Add(3*vclock.Minute))
	if err != nil {
		t.Fatal(err)
	}
	for _, pv := range res.Value {
		for _, ver := range pv.Versions {
			if !ver.Live && ver.TS < b.createdAt {
				t.Fatalf("lpa %d: prior-tenant version at %v visible to new tenant", pv.LPA, ver.TS)
			}
		}
	}
}

func TestBatchPartialFailure(t *testing.T) {
	s := newService(t, 2)
	ps := s.arr.PageSize()
	at := vclock.Time(vclock.Hour)
	v, err := s.Create("v", "k", 16, 0, at)
	if err != nil {
		t.Fatal(err)
	}
	res := v.Batch([]BatchOp{
		{Kind: KindWrite, LPA: 1, Data: pattern(0x42, ps), At: at.Add(vclock.Second)},
		{Kind: KindWrite, LPA: 500, Data: pattern(1, ps), At: at.Add(vclock.Second)},
		{Kind: KindRead, LPA: 1, At: at.Add(2 * vclock.Second)},
		{Kind: OpKind(99), LPA: 0, At: at.Add(vclock.Second)},
		{Kind: KindRead, LPA: 2, At: at.Add(-vclock.Hour)},
		{Kind: KindTrim, LPA: 1, At: at.Add(3 * vclock.Second)},
	})
	if len(res) != 6 {
		t.Fatalf("%d results", len(res))
	}
	if res[0].Err != nil || res[2].Err != nil || res[5].Err != nil {
		t.Fatalf("good ops poisoned: %v %v %v", res[0].Err, res[2].Err, res[5].Err)
	}
	if !bytes.Equal(res[2].Data, pattern(0x42, ps)) {
		t.Fatal("batch read wrong data")
	}
	if !errors.Is(res[1].Err, ftl.ErrOutOfRange) {
		t.Fatalf("oob op: %v", res[1].Err)
	}
	if res[3].Err == nil {
		t.Fatal("unknown kind accepted")
	}
	if !errors.Is(res[4].Err, ErrBeforeWindow) {
		t.Fatalf("pre-creation op: %v", res[4].Err)
	}
}

func TestObsSnapshotCounts(t *testing.T) {
	s := newService(t, 2)
	s.SetObsEnabled(true)
	ps := s.arr.PageSize()
	at := vclock.Time(vclock.Hour)
	v, err := s.Create("v", "k", 16, 0, at)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		if _, err := v.Write(i, pattern(byte(i+1), ps), at.Add(vclock.Duration(i)*vclock.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := v.Read(0, at.Add(vclock.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Trim(3, at.Add(2*vclock.Minute)); err != nil {
		t.Fatal(err)
	}
	v.Batch([]BatchOp{
		{Kind: KindRead, LPA: 1, At: at.Add(3 * vclock.Minute)},
		{Kind: KindWrite, LPA: 2, Data: pattern(9, ps), At: at.Add(3 * vclock.Minute)},
	})

	snap := v.Snapshot()
	if snap.C.HostPageWrites != 5 || snap.C.HostPageReads != 2 || snap.C.TrimOps != 1 {
		t.Fatalf("derived counters: %+v", snap.C)
	}
	if snap.Ops[obs.VolBatch.String()].Count != 1 {
		t.Fatalf("batch class count: %+v", snap.Ops[obs.VolBatch.String()])
	}
	merged := s.ObsSnapshot()
	if merged.C.HostPageWrites != 5 {
		t.Fatalf("merged counters: %+v", merged.C)
	}
}
