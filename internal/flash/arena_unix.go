//go:build unix && !race

package flash

import (
	"errors"
	"runtime"
	"sync"
	"syscall"
)

// On unix the content arena is an anonymous private mapping outside the Go
// heap. The collector aims each cycle at twice the live heap, and an arena
// on the heap is live heap byte for byte, so a device used to cost twice its
// size in RSS; off the heap the collector paces on the metadata alone, and
// the kernel backs a page of the arena only when it is first programmed.
// Neither huge pages nor a release on erase: one sparse touch of a huge
// page zeroes 2 MiB, and a released block faults again when reprogrammed.
//
// Race builds take the heap arena (arena_heap.go) because the race detector
// does not see memory outside the Go heap, and a read of an arena alias on
// one goroutine while another reprograms the page (the torn read the array
// fixed by copying in shard.exec) is what the -race lanes must still catch.
//
// A finalizer on the Array puts its arena on freeArenas, and the next New of
// exactly that size takes it back without clearing it: the stale bytes sit
// behind dataLen, unreachable, as an erase leaves them. A New that finds no
// arena of its size unmaps every free one first, since the process has moved
// to another geometry, so free bytes never exceed what was live before.
var freeArenas struct {
	sync.Mutex
	list [][]byte
}

// newArena returns an n-byte content arena for a and arranges for it to be
// freed with a.
func newArena(a *Array, n int) ([]byte, error) {
	mem, err := takeArena(n)
	if err != nil {
		return nil, err
	}
	runtime.SetFinalizer(a, freeArena)
	return mem, nil
}

// takeArena reuses a freed arena of n bytes, or maps a new one.
func takeArena(n int) ([]byte, error) {
	f := &freeArenas
	f.Lock()
	defer f.Unlock()
	for i, mem := range f.list {
		if len(mem) == n {
			f.list = append(f.list[:i], f.list[i+1:]...)
			return mem, nil
		}
	}
	var err error
	for _, mem := range f.list {
		err = errors.Join(err, syscall.Munmap(mem))
	}
	f.list = nil
	if err != nil {
		return nil, err
	}
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// freeArena is the Array's finalizer: it puts a's arena up for reuse.
func freeArena(a *Array) {
	freeArenas.Lock()
	freeArenas.list = append(freeArenas.list, a.data)
	freeArenas.Unlock()
}
