package fsim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/vclock"
)

// newDevice returns a TimeSSD-backed device (the FS must run on both FTLs;
// TimeSSD is the interesting one).
func newDevice(t *testing.T) ftl.Device {
	t.Helper()
	fc := flash.DefaultConfig()
	fc.Channels = 2
	fc.ChipsPerChannel = 1
	fc.BlocksPerPlane = 48
	fc.PagesPerBlock = 16
	fc.PageSize = 512
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0
	d, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newFS(t *testing.T, mode Mode) *FS {
	t.Helper()
	opts := DefaultOptions(mode)
	opts.InodeCount = 64
	opts.JournalPages = 16
	opts.SegmentPages = 8
	fs, _, err := Mkfs(newDevice(t), opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

var allModes = []Mode{ModeInPlace, ModeOrderedJournal, ModeDataJournal, ModeLogStructured}

func forAllModes(t *testing.T, fn func(t *testing.T, fs *FS)) {
	for _, m := range allModes {
		t.Run(m.String(), func(t *testing.T) { fn(t, newFS(t, m)) })
	}
}

func TestCreateWriteReadDelete(t *testing.T) {
	forAllModes(t, func(t *testing.T, fs *FS) {
		at := vclock.Time(100)
		var err error
		if at, err = fs.Create("hello.txt", at); err != nil {
			t.Fatal(err)
		}
		msg := []byte("hello, almanac")
		if at, err = fs.Write("hello.txt", 0, msg, at); err != nil {
			t.Fatal(err)
		}
		got, at, err := fs.Read("hello.txt", 0, len(msg), at)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("read %q", got)
		}
		if sz, _ := fs.Size("hello.txt"); sz != int64(len(msg)) {
			t.Fatalf("size %d", sz)
		}
		free := fs.freeData
		if at, err = fs.Delete("hello.txt", at); err != nil {
			t.Fatal(err)
		}
		if fs.freeData <= free {
			t.Fatal("delete freed nothing")
		}
		if _, _, err := fs.Read("hello.txt", 0, 1, at); !errors.Is(err, ErrNotFound) {
			t.Fatalf("read after delete: %v", err)
		}
	})
}

func TestPartialAndOffsetWrites(t *testing.T) {
	forAllModes(t, func(t *testing.T, fs *FS) {
		at := vclock.Time(1)
		var err error
		at, err = fs.Create("f", at)
		if err != nil {
			t.Fatal(err)
		}
		// Write at a hole-creating offset.
		if at, err = fs.Write("f", 1000, []byte("world"), at); err != nil {
			t.Fatal(err)
		}
		// Overwrite the middle.
		if at, err = fs.Write("f", 1002, []byte("XYZ"), at); err != nil {
			t.Fatal(err)
		}
		got, at, err := fs.Read("f", 998, 10, at)
		if err != nil {
			t.Fatal(err)
		}
		want := []byte{0, 0, 'w', 'o', 'X', 'Y', 'Z'}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %q want %q", got, want)
		}
		// The hole reads as zeros.
		head, _, err := fs.Read("f", 0, 8, at)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range head {
			if b != 0 {
				t.Fatal("hole not zero")
			}
		}
	})
}

func TestLargeFileIndirect(t *testing.T) {
	forAllModes(t, func(t *testing.T, fs *FS) {
		at := vclock.Time(1)
		var err error
		at, err = fs.Create("big", at)
		if err != nil {
			t.Fatal(err)
		}
		// More pages than the 12 direct pointers.
		n := (numDirect + 8) * fs.dev.PageSize()
		data := make([]byte, n)
		rng := rand.New(rand.NewSource(1))
		rng.Read(data)
		if at, err = fs.Write("big", 0, data, at); err != nil {
			t.Fatal(err)
		}
		got, _, err := fs.Read("big", 0, n, at)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("large file corrupt")
		}
		lpas, err := fs.FileLPAs("big")
		if err != nil {
			t.Fatal(err)
		}
		if len(lpas) != numDirect+8 {
			t.Fatalf("FileLPAs returned %d pages", len(lpas))
		}
	})
}

func TestFileTooBig(t *testing.T) {
	fs := newFS(t, ModeInPlace)
	at, err := fs.Create("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	huge := (fs.maxFilePages() + 1) * fs.dev.PageSize()
	if _, err := fs.Write("x", 0, make([]byte, huge), at); !errors.Is(err, ErrFileTooBig) {
		t.Fatalf("oversize write: %v", err)
	}
}

func TestNameAndDupErrors(t *testing.T) {
	fs := newFS(t, ModeInPlace)
	at := vclock.Time(1)
	var err error
	if _, err = fs.Create("", at); !errors.Is(err, ErrBadName) {
		t.Fatal("empty name accepted")
	}
	if at, err = fs.Create("a", at); err != nil {
		t.Fatal(err)
	}
	if _, err = fs.Create("a", at); !errors.Is(err, ErrExists) {
		t.Fatal("duplicate accepted")
	}
	if _, err = fs.Delete("nope", at); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleting missing file succeeded")
	}
	if _, err = fs.Write("nope", 0, []byte{1}, at); !errors.Is(err, ErrNotFound) {
		t.Fatal("write to missing file succeeded")
	}
}

func TestMountRoundTrip(t *testing.T) {
	forAllModes(t, func(t *testing.T, fs *FS) {
		at := vclock.Time(1)
		var err error
		files := map[string][]byte{}
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("file%02d", i)
			data := make([]byte, 100+rng.Intn(3000))
			rng.Read(data)
			if at, err = fs.Create(name, at); err != nil {
				t.Fatal(err)
			}
			if at, err = fs.Write(name, 0, data, at); err != nil {
				t.Fatal(err)
			}
			files[name] = data
		}
		// Remount from the device and verify everything.
		m, at2, err := Mount(fs.Device(), at)
		if err != nil {
			t.Fatal(err)
		}
		if m.Mode() != fs.Mode() {
			t.Fatalf("mode lost: %v vs %v", m.Mode(), fs.Mode())
		}
		if len(m.List()) != len(files) {
			t.Fatalf("mounted %d files, want %d", len(m.List()), len(files))
		}
		for name, want := range files {
			got, _, err := m.Read(name, 0, len(want), at2)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s corrupt after mount", name)
			}
		}
	})
}

func TestMountRejectsGarbage(t *testing.T) {
	dev := newDevice(t)
	if _, _, err := Mount(dev, 0); !errors.Is(err, ErrNotMounted) {
		t.Fatalf("mounted an unformatted device: %v", err)
	}
}

func TestJournalModeWritesJournal(t *testing.T) {
	fs := newFS(t, ModeDataJournal)
	at := vclock.Time(1)
	var err error
	at, err = fs.Create("j", at)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4*fs.dev.PageSize())
	if _, err = fs.Write("j", 0, data, at); err != nil {
		t.Fatal(err)
	}
	if fs.JournalWrites == 0 {
		t.Fatal("data journal mode wrote no journal pages")
	}
	// Data journaling writes each data page twice plus desc/commit.
	if fs.JournalWrites < fs.DataWrites {
		t.Fatalf("journal writes %d < data writes %d", fs.JournalWrites, fs.DataWrites)
	}
}

func TestOrderedJournalsMetadataOnly(t *testing.T) {
	run := func(mode Mode) int64 {
		fs := newFS(t, mode)
		at, err := fs.Create("j", vclock.Time(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err = fs.Write("j", 0, make([]byte, 8*fs.dev.PageSize()), at); err != nil {
			t.Fatal(err)
		}
		return fs.JournalWrites
	}
	ordered := run(ModeOrderedJournal)
	data := run(ModeDataJournal)
	if ordered == 0 {
		t.Fatal("ordered mode journaled nothing")
	}
	// Ordered journaling commits only metadata; for a large data write it
	// must journal far less than data journaling.
	if ordered >= data {
		t.Fatalf("ordered journal (%d pages) not below data journal (%d)", ordered, data)
	}
}

func TestInPlaceModeSkipsJournal(t *testing.T) {
	fs := newFS(t, ModeInPlace)
	at, _ := fs.Create("f", 0)
	if _, err := fs.Write("f", 0, make([]byte, 2048), at); err != nil {
		t.Fatal(err)
	}
	if fs.JournalWrites != 0 {
		t.Fatal("in-place mode journaled")
	}
}

func TestLFSCleanerRunsAndPreservesData(t *testing.T) {
	// A small device so live data dominates: with most segments half-cold,
	// the log exhausts clean segments and the cleaner must relocate.
	fc := flash.DefaultConfig()
	fc.Channels = 2
	fc.ChipsPerChannel = 1
	fc.BlocksPerPlane = 24
	fc.PagesPerBlock = 8
	fc.PageSize = 512
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0
	dev, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(ModeLogStructured)
	opts.InodeCount = 16
	opts.SegmentPages = 8
	fs, _, err := Mkfs(dev, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := vclock.Time(1)
	ps := fs.dev.PageSize()
	rng := rand.New(rand.NewSource(3))
	// Interleave pages of a long-lived cold file with a hot file so every
	// log segment holds some live data: dead segments can then never
	// self-clean and the cleaner must relocate cold pages.
	at, err = fs.Create("cold", at)
	if err != nil {
		t.Fatal(err)
	}
	at, err = fs.Create("hot", at)
	if err != nil {
		t.Fatal(err)
	}
	filePages := fs.freeData / 3
	if filePages > fs.maxFilePages() {
		filePages = fs.maxFilePages()
	}
	wantCold := make([]byte, filePages*ps)
	wantHot := make([]byte, filePages*ps)
	rng.Read(wantCold)
	rng.Read(wantHot)
	for i := 0; i < filePages; i++ {
		if at, err = fs.Write("cold", int64(i*ps), wantCold[i*ps:(i+1)*ps], at); err != nil {
			t.Fatal(err)
		}
		if at, err = fs.Write("hot", int64(i*ps), wantHot[i*ps:(i+1)*ps], at); err != nil {
			t.Fatal(err)
		}
	}
	// Churn the hot file to force log wrap + cleaning.
	for i := 0; i < 600; i++ {
		off := int64(rng.Intn(filePages)) * int64(ps)
		chunk := make([]byte, ps)
		rng.Read(chunk)
		if at, err = fs.Write("hot", off, chunk, at); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
		copy(wantHot[off:], chunk)
	}
	if fs.CleanerRuns == 0 {
		t.Fatal("LFS cleaner never ran")
	}
	gotCold, _, err := fs.Read("cold", 0, len(wantCold), at)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCold, wantCold) {
		t.Fatal("cold data corrupt after cleaning")
	}
	gotHot, _, err := fs.Read("hot", 0, len(wantHot), at)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotHot, wantHot) {
		t.Fatal("hot data corrupt after cleaning")
	}
}

func TestAppend(t *testing.T) {
	fs := newFS(t, ModeInPlace)
	at := vclock.Time(1)
	var err error
	at, err = fs.Create("log", at)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if at, err = fs.Append("log", []byte(fmt.Sprintf("entry %d\n", i)), at); err != nil {
			t.Fatal(err)
		}
	}
	sz, _ := fs.Size("log")
	got, _, err := fs.Read("log", 0, int(sz), at)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("entry 0\n")) || !bytes.HasSuffix(got, []byte("entry 9\n")) {
		t.Fatalf("append order broken: %q", got)
	}
}

func TestMtime(t *testing.T) {
	fs := newFS(t, ModeInPlace)
	at, err := fs.Create("f", 100)
	if err != nil {
		t.Fatal(err)
	}
	at, err = fs.Write("f", 0, []byte("x"), at.Add(vclock.Second))
	if err != nil {
		t.Fatal(err)
	}
	if mt := fs.inodes[fs.dir["f"]].mtime; mt <= 100 {
		t.Fatalf("mtime %v not updated", mt)
	}
}

// TestRandomOpsModelCheck runs a random file workload against an in-memory
// model on all three modes.
func TestRandomOpsModelCheck(t *testing.T) {
	forAllModes(t, func(t *testing.T, fs *FS) {
		rng := rand.New(rand.NewSource(4))
		model := map[string][]byte{}
		at := vclock.Time(1)
		var err error
		names := []string{"a", "b", "c", "d", "e"}
		maxSize := 6 * fs.dev.PageSize()
		for step := 0; step < 400; step++ {
			name := names[rng.Intn(len(names))]
			_, exists := model[name]
			switch op := rng.Intn(10); {
			case op == 0 && exists: // delete
				if at, err = fs.Delete(name, at); err != nil {
					t.Fatalf("step %d delete: %v", step, err)
				}
				delete(model, name)
			case op <= 2 && exists: // read range
				m := model[name]
				if len(m) == 0 {
					continue
				}
				off := rng.Intn(len(m))
				n := rng.Intn(len(m) - off)
				got, _, rerr := fs.Read(name, int64(off), n, at)
				if rerr != nil {
					t.Fatalf("step %d read: %v", step, rerr)
				}
				if !bytes.Equal(got, m[off:off+n]) {
					t.Fatalf("step %d: read mismatch on %s", step, name)
				}
			default: // write (create as needed)
				if !exists {
					if at, err = fs.Create(name, at); err != nil {
						t.Fatalf("step %d create: %v", step, err)
					}
					model[name] = nil
				}
				off := rng.Intn(maxSize / 2)
				n := 1 + rng.Intn(maxSize/2)
				chunk := make([]byte, n)
				rng.Read(chunk)
				if at, err = fs.Write(name, int64(off), chunk, at); err != nil {
					t.Fatalf("step %d write: %v", step, err)
				}
				m := model[name]
				if off+n > len(m) {
					nm := make([]byte, off+n)
					copy(nm, m)
					m = nm
				}
				copy(m[off:], chunk)
				model[name] = m
			}
		}
		// Final full verification.
		for name, want := range model {
			got, _, err := fs.Read(name, 0, len(want), at)
			if err != nil {
				t.Fatalf("final read %s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("final content mismatch on %s", name)
			}
		}
	})
}
