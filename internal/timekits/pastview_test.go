package timekits

import (
	"bytes"
	"errors"
	"testing"

	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/fsim"
	"almanac/internal/ftl"
	"almanac/internal/vclock"
)

// pastDevice is a read-only block device whose contents are dev as it
// stood at when: every Read resolves through VersionAt, and a page with no
// version then reads as zeroes.
type pastDevice struct {
	dev  *core.TimeSSD
	when vclock.Time
}

var errReadOnly = errors.New("past view is read-only")

func (p pastDevice) Read(lpa uint64, at vclock.Time) ([]byte, vclock.Time, error) {
	v, done, err := p.dev.VersionAt(lpa, p.when, at)
	switch {
	case err != nil:
		return nil, done, err
	case v == nil:
		return make([]byte, p.dev.PageSize()), done, nil
	}
	return v.Data, done, nil
}

func (p pastDevice) Write(uint64, []byte, vclock.Time) (vclock.Time, error) {
	return 0, errReadOnly
}
func (p pastDevice) Trim(uint64, vclock.Time) (vclock.Time, error) { return 0, errReadOnly }
func (p pastDevice) LogicalPages() int                             { return p.dev.LogicalPages() }
func (p pastDevice) PageSize() int                                 { return p.dev.PageSize() }

// TestMountFileSystemAsOfThePast is the headline integration: a file
// system is created, evolves (edits, new files, deletions), and then the
// entire tree is mounted read-only exactly as it stood at an earlier
// instant — including a file that "no longer exists".
func TestMountFileSystemAsOfThePast(t *testing.T) {
	// fsim needs real-sized pages; build a dedicated device.
	fc := flash.DefaultConfig()
	fc.Channels = 2
	fc.ChipsPerChannel = 1
	fc.BlocksPerPlane = 32
	fc.PagesPerBlock = 16
	fc.PageSize = 512
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 30 * vclock.Day
	dev, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, at, err := fsim.Mkfs(dev, fsim.DefaultOptions(fsim.ModeInPlace), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 1: two files.
	if at, err = fs.Create("report.txt", at.Add(vclock.Second)); err != nil {
		t.Fatal(err)
	}
	v1 := []byte("quarterly numbers: 42")
	if at, err = fs.Write("report.txt", 0, v1, at); err != nil {
		t.Fatal(err)
	}
	if at, err = fs.Create("doomed.txt", at); err != nil {
		t.Fatal(err)
	}
	if at, err = fs.Write("doomed.txt", 0, []byte("short-lived"), at); err != nil {
		t.Fatal(err)
	}
	snapshot := at // ← the instant we will travel back to

	// Epoch 2: edits and a deletion.
	at = at.Add(vclock.Hour)
	v2 := []byte("quarterly numbers: 7 (restated)")
	if at, err = fs.Write("report.txt", 0, v2, at); err != nil {
		t.Fatal(err)
	}
	if at, err = fs.Delete("doomed.txt", at); err != nil {
		t.Fatal(err)
	}
	if at, err = fs.Create("new.txt", at); err != nil {
		t.Fatal(err)
	}
	if at, err = fs.Write("new.txt", 0, []byte("born later"), at); err != nil {
		t.Fatal(err)
	}

	// The present is the present…
	sz, _ := fs.Size("report.txt")
	cur, _, _ := fs.Read("report.txt", 0, int(sz), at)
	if !bytes.Equal(cur, v2) {
		t.Fatal("present state wrong")
	}

	// …and the past is mountable.
	past, done, err := fsim.Mount(pastDevice{dev, snapshot}, at)
	if err != nil {
		t.Fatalf("mounting the past: %v", err)
	}
	names := past.List()
	if len(names) != 2 {
		t.Fatalf("past tree has %v, want [doomed.txt report.txt]", names)
	}
	psz, err := past.Size("report.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := past.Read("report.txt", 0, int(psz), done)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) {
		t.Fatalf("past content %q, want %q", got, v1)
	}
	dsz, err := past.Size("doomed.txt")
	if err != nil {
		t.Fatal(err)
	}
	dgot, _, err := past.Read("doomed.txt", 0, int(dsz), done)
	if err != nil || !bytes.Equal(dgot, []byte("short-lived")) {
		t.Fatalf("deleted file not readable in the past view: %v %q", err, dgot)
	}
	if _, err := past.Size("new.txt"); err == nil {
		t.Fatal("a file from the future exists in the past")
	}
	// The past is immutable.
	if _, err := past.Create("huh", done); err == nil {
		t.Fatal("past view accepted a write")
	}

	// The present is untouched by all that browsing.
	cur2, _, _ := fs.Read("report.txt", 0, int(sz), at)
	if !bytes.Equal(cur2, v2) {
		t.Fatal("past browsing disturbed the present")
	}
}
