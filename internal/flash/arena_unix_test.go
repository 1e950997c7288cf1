//go:build unix && !race

package flash

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// TestArenaOffHeap: a 64 MiB device puts its metadata on the Go heap and
// none of its content.
func TestArenaOffHeap(t *testing.T) {
	c := DefaultConfig()
	c.BlocksPerPlane = 32 // 64 MiB
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a := mustNew(t, c)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(a)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("a %d MiB device grew the Go heap by %d bytes", c.TotalBytes()>>20, grew)
	}
}

// TestArenaReuse fills a device with 0xFF pages and drops it, builds a
// device of the same size on the freed arena and programs short pages:
// Read, PeekPage and WriteImage must match a device on a fresh arena byte
// for byte, since the stale bytes behind each page's length are unreachable.
func TestArenaReuse(t *testing.T) {
	c := tinyConfig()
	c.PageSize = 96 // no other test maps an arena of this size
	n := int(c.TotalBytes())
	func() {
		a := mustNew(t, c)
		full := bytes.Repeat([]byte{0xFF}, c.PageSize)
		for blk := 0; blk < c.TotalBlocks(); blk++ {
			for p := 0; p < c.PagesPerBlock; p++ {
				if _, _, err := a.Program(blk, full, OOB{Kind: KindData}, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}()
	for i := 0; freeArenasOf(n) == 0; i++ {
		if i == 1000 {
			t.Fatal("the dropped device's arena was never freed")
		}
		runtime.GC()
		runtime.Gosched()
	}
	free := freeArenasOf(n)
	reused := mustNew(t, c)
	if freeArenasOf(n) != free-1 {
		t.Fatal("New mapped a new arena while a freed one of its size waited")
	}
	fresh := mustNew(t, c)

	var images [2]bytes.Buffer
	for i, a := range []*Array{reused, fresh} {
		for blk := 0; blk < c.TotalBlocks(); blk++ {
			for p := 0; p < c.PagesPerBlock; p++ {
				data := bytes.Repeat([]byte{byte(blk)}, 1+(blk+p)%8)
				if _, _, err := a.Program(blk, data, OOB{LPA: uint64(p), Kind: KindData}, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := a.WriteImage(&images[i]); err != nil {
			t.Fatal(err)
		}
	}
	for ppa := PPA(0); int(ppa) < c.TotalPages(); ppa++ {
		r, _, _, err1 := reused.Read(ppa, 0)
		f, _, _, err2 := fresh.Read(ppa, 0)
		pr, _, err3 := reused.PeekPage(ppa)
		pf, _, err4 := fresh.PeekPage(ppa)
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r, f) || !bytes.Equal(pr, pf) {
			t.Fatalf("ppa %d reads %x on the reused arena, %x on a fresh one", ppa, r, f)
		}
	}
	if !bytes.Equal(images[0].Bytes(), images[1].Bytes()) {
		t.Fatal("the image of a device on a reused arena differs from one on a fresh arena")
	}
}

// freeArenasOf counts the freed arenas of n bytes waiting for reuse.
func freeArenasOf(n int) int {
	freeArenas.Lock()
	defer freeArenas.Unlock()
	k := 0
	for _, mem := range freeArenas.list {
		if len(mem) == n {
			k++
		}
	}
	return k
}
