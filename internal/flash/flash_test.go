package flash

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"almanac/internal/invariant"
	"almanac/internal/obs"
	"almanac/internal/vclock"
)

func tinyConfig() Config {
	c := DefaultConfig()
	c.Channels = 2
	c.ChipsPerChannel = 1
	c.BlocksPerPlane = 4
	c.PagesPerBlock = 4
	c.PageSize = 64
	return c
}

func mustNew(t testing.TB, c Config) *Array {
	t.Helper()
	a, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigValidate(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Channels = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero channels accepted")
	}
}

func TestGeometryMath(t *testing.T) {
	c := tinyConfig()
	if got := c.TotalBlocks(); got != 2*1*1*4 {
		t.Fatalf("TotalBlocks = %d", got)
	}
	if got := c.TotalPages(); got != 8*4 {
		t.Fatalf("TotalPages = %d", got)
	}
	if got := c.TotalBytes(); got != int64(32*64) {
		t.Fatalf("TotalBytes = %d", got)
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	a := mustNew(t, tinyConfig())
	want := []byte("hello flash page")
	oob := OOB{LPA: 7, BackPtr: NullPPA, TS: 42, Kind: KindData}
	ppa, done, err := a.Program(0, want, oob, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ppa != 0 {
		t.Fatalf("first program landed at %d", ppa)
	}
	if done != vclock.Time(a.Config().ProgLatency) {
		t.Fatalf("program done at %v", done)
	}
	data, gotOOB, _, err := a.Read(ppa, done)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("read back %q", data)
	}
	if gotOOB != oob {
		t.Fatalf("OOB mismatch: %+v", gotOOB)
	}
}

func TestSequentialProgramWithinBlock(t *testing.T) {
	a := mustNew(t, tinyConfig())
	oob := OOB{Kind: KindData}
	var at vclock.Time
	for i := 0; i < a.Config().PagesPerBlock; i++ {
		ppa, done, err := a.Program(1, []byte{byte(i)}, oob, at)
		if err != nil {
			t.Fatal(err)
		}
		if a.PageOf(ppa) != i {
			t.Fatalf("program %d landed at offset %d", i, a.PageOf(ppa))
		}
		at = done
	}
	if _, _, err := a.Program(1, []byte{9}, oob, at); !errors.Is(err, ErrBlockFull) {
		t.Fatalf("program to full block: %v", err)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	a := mustNew(t, tinyConfig())
	oob := OOB{Kind: KindData}
	ppa, at, err := a.Program(2, []byte{1}, oob, 0)
	if err != nil {
		t.Fatal(err)
	}
	at, err = a.Erase(2, at)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := a.Read(ppa, at); !errors.Is(err, ErrReadFree) {
		t.Fatalf("read after erase: %v", err)
	}
	if a.WritePtr(2) != 0 {
		t.Fatal("write pointer not reset")
	}
	if a.EraseCount(2) != 1 {
		t.Fatalf("erase count %d", a.EraseCount(2))
	}
	// Block is programmable again from page 0.
	ppa2, _, err := a.Program(2, []byte{2}, oob, at)
	if err != nil || a.PageOf(ppa2) != 0 {
		t.Fatalf("reprogram after erase: ppa=%v err=%v", ppa2, err)
	}
}

func TestReadFreePageFails(t *testing.T) {
	a := mustNew(t, tinyConfig())
	if _, _, _, err := a.Read(5, 0); !errors.Is(err, ErrReadFree) {
		t.Fatalf("got %v", err)
	}
}

func TestBadAddresses(t *testing.T) {
	a := mustNew(t, tinyConfig())
	if _, _, _, err := a.Read(PPA(a.Config().TotalPages()), 0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("got %v", err)
	}
	if _, _, err := a.Program(-1, nil, OOB{Kind: KindData}, 0); !errors.Is(err, ErrBadAddress) {
		t.Fatal("negative block accepted")
	}
	if _, err := a.Erase(99, 0); !errors.Is(err, ErrBadAddress) {
		t.Fatal("out-of-range erase accepted")
	}
}

func TestProgramRejectsOversizeAndFreeOOB(t *testing.T) {
	a := mustNew(t, tinyConfig())
	big := make([]byte, a.Config().PageSize+1)
	if _, _, err := a.Program(0, big, OOB{Kind: KindData}, 0); err == nil {
		t.Fatal("oversize payload accepted")
	}
	if _, _, err := a.Program(0, []byte{1}, OOB{}, 0); err == nil {
		t.Fatal("free OOB kind accepted")
	}
}

func TestChannelTimingParallelism(t *testing.T) {
	c := tinyConfig()
	a := mustNew(t, c)
	// Blocks 0..3 are on channel 0's chip, 4..7 on channel 1's (one chip
	// per channel).
	ch0 := a.ChannelOfBlock(0)
	ch1 := a.ChannelOfBlock(c.BlocksPerChip())
	if ch0 == ch1 {
		t.Fatal("expected different channels for different chips")
	}
	oob := OOB{Kind: KindData}
	// Two programs on the same channel serialize.
	_, d1, _ := a.Program(0, []byte{1}, oob, 0)
	_, d2, _ := a.Program(0, []byte{2}, oob, 0)
	if d2 != d1.Add(c.ProgLatency) {
		t.Fatalf("same-channel ops did not serialize: %v then %v", d1, d2)
	}
	// A program on the other channel overlaps.
	_, d3, _ := a.Program(c.BlocksPerChip(), []byte{3}, oob, 0)
	if d3 != vclock.Time(c.ProgLatency) {
		t.Fatalf("cross-channel op delayed: %v", d3)
	}
}

// TestChargeReadsMatchesRead charges two runs of reads that start
// together, so the second queues behind the first, on channels still busy
// with programs: once through Read, and once dry through QueueRead on a
// copy of the horizons and then applied in one step through ChargeReads.
// The horizons, the stats, the flash-read virtual histogram and its wall
// count must agree. Under almanacdebug, applying horizons that move a
// channel backwards must panic.
func TestChargeReadsMatchesRead(t *testing.T) {
	c := tinyConfig()
	c.Channels = 3
	newArr := func() (*Array, []PPA) {
		a := mustNew(t, c)
		r := obs.NewRegistry()
		r.SetEnabled(true)
		a.SetObserver(r)
		page := make([]PPA, c.Channels) // a programmed page on each channel
		for b := 0; b < c.TotalBlocks(); b += c.BlocksPerChip() {
			ppa, _, err := a.Program(b, []byte{byte(b)}, OOB{Kind: KindData}, 0)
			if err != nil {
				t.Fatal(err)
			}
			page[a.ChannelOfBlock(b)] = ppa
		}
		return a, page
	}
	runs := [][]int{{0, 0, 1, 2}, {0, 1, 1}} // channels, in read order
	at := vclock.Time(c.ReadLatency)         // before the programs complete

	one, page := newArr()
	for _, run := range runs {
		end := at
		for _, ch := range run {
			var err error
			if _, _, end, err = one.Read(page[ch], end); err != nil {
				t.Fatal(err)
			}
		}
	}
	bulk, _ := newArr()
	busy := bulk.Horizons(nil)
	var lat obs.HistSnapshot
	for _, run := range runs {
		end := at
		for _, ch := range run {
			next := bulk.QueueRead(busy, ch, end)
			lat.Observe(int64(next.Sub(end)))
			end = next
		}
	}
	bulk.ChargeReads(busy, &lat)

	if ho, hb := one.Horizons(nil), bulk.Horizons(nil); !slices.Equal(ho, hb) {
		t.Fatalf("horizons: read by read %v, applied %v", ho, hb)
	}
	so, sb := one.obsr.Ops()["flash-read"], bulk.obsr.Ops()["flash-read"]
	if one.Stats() != bulk.Stats() || so.Virt != sb.Virt || so.Wall.Count != sb.Wall.Count || sb.Count != bulk.Stats().Reads {
		t.Fatalf("read by read: %+v %+v; applied: %+v %+v", one.Stats(), so, bulk.Stats(), sb)
	}
	if so.Virt.MaxNS <= int64(c.ReadLatency) {
		t.Fatalf("no read queued: max latency %d ns", so.Virt.MaxNS)
	}

	if invariant.Enabled {
		defer func() {
			if recover() == nil {
				t.Fatal("ChargeReads moved a horizon backwards without panicking")
			}
		}()
		bulk.ChargeReads(make([]vclock.Time, c.Channels), &obs.HistSnapshot{})
	}
}

func TestStatsAndWear(t *testing.T) {
	a := mustNew(t, tinyConfig())
	oob := OOB{Kind: KindData}
	ppa, at, _ := a.Program(0, []byte{1}, oob, 0)
	_, _, _, _ = a.Read(ppa, at)
	_, _ = a.Erase(0, at)
	s := a.Stats()
	if s.Programs != 1 || s.Reads != 1 || s.Erases != 1 {
		t.Fatalf("stats %+v", s)
	}
	min, max := a.WearSpread()
	if min != 0 || max != 1 {
		t.Fatalf("wear spread %d..%d", min, max)
	}
}

func TestDataIsCopiedOnProgram(t *testing.T) {
	a := mustNew(t, tinyConfig())
	buf := []byte{1, 2, 3}
	ppa, at, _ := a.Program(0, buf, OOB{Kind: KindData}, 0)
	buf[0] = 99
	data, _, _, _ := a.Read(ppa, at)
	if data[0] != 1 {
		t.Fatal("Program aliased caller buffer")
	}
}

func TestPageKindString(t *testing.T) {
	for k, want := range map[PageKind]string{
		KindFree: "free", KindData: "data", KindDelta: "delta",
		KindDeltaRaw: "delta-raw", KindTranslation: "translation",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}
