package almaproto

import (
	"encoding/binary"
	"io"
	"net"
	"sync"

	"almanac/internal/obs"
)

// Frame-buffer pooling for the v4 data path. The tagged transport moves a
// frame per request and a frame per completion; allocating each one
// (64 KB batch frames on the hot path) made the garbage collector the
// bottleneck of the wire path. A framePool is an explicit generation-
// tagged free list — the same discipline as lzf.Compressor and the core's
// flat refcache — so steady-state framing allocates nothing and the
// AllocsPerRun pins stay deterministic (a sync.Pool can be emptied by any
// GC cycle mid-run).
//
// Lifecycle: acquire leases a buffer, release returns it. A release bumps
// the buffer's generation, so a holder that recorded the generation at
// acquire time can detect use-after-release (fb.stale), and a double
// release panics instead of corrupting the free list with an aliased
// buffer.

// frameBuf is one pooled frame: a length-prefixed wire frame or a frame
// body, depending on the path. The backing array is retained across
// reuse, so a connection's buffers grow to its frame sizes once and then
// recycle.
type frameBuf struct {
	b    []byte
	gen  uint32
	free bool
}

// stale reports whether the buffer has been released (and possibly
// re-leased) since the caller recorded gen.
func (fb *frameBuf) stale(gen uint32) bool { return fb.gen != gen || fb.free }

// framePool is a mutex-guarded free list of frame buffers. Pools are
// per-connection (or per-client direction), so the mutex is uncontended
// relative to the I/O it amortises. leased counts buffers out on lease:
// it is zero whenever the connection is quiescent, which is how tests
// prove a failure path stranded nothing.
type framePool struct {
	mu     sync.Mutex
	free   []*frameBuf
	leased int
}

// acquire leases a buffer with len(b) == n, allocating only when the free
// list is empty or the recycled buffer is too small.
func (p *framePool) acquire(n int) *frameBuf {
	p.mu.Lock()
	var fb *frameBuf
	if k := len(p.free); k > 0 {
		fb = p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
	}
	p.leased++
	p.mu.Unlock()
	if fb == nil {
		fb = &frameBuf{}
	}
	fb.free = false
	if cap(fb.b) < n {
		fb.b = make([]byte, n)
	}
	fb.b = fb.b[:n]
	return fb
}

// release returns a leased buffer to the free list. The caller must not
// touch fb.b afterwards — the next acquire hands the same storage to
// someone else. Releasing twice panics: a doubly-listed buffer would be
// leased to two holders at once.
func (p *framePool) release(fb *frameBuf) {
	if fb.free {
		panic("almaproto: frame buffer released twice")
	}
	fb.free = true
	fb.gen++
	p.mu.Lock()
	p.free = append(p.free, fb)
	p.leased--
	p.mu.Unlock()
}

// readFrameInto reads one length-prefixed frame body into a pooled
// buffer. On error nothing stays leased.
func readFrameInto(r io.Reader, p *framePool, wire *obs.WireStats) (*frameBuf, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, ErrFrameTooLarge
	}
	fb := p.acquire(int(n))
	if _, err := io.ReadFull(r, fb.b); err != nil {
		p.release(fb)
		return nil, err
	}
	wire.RecordRead(4 + int(n))
	return fb, nil
}

// coalesceLimit bounds the flattening copy of a multi-frame flush: below
// it, queued frames are memcpy'd into one contiguous buffer and issued as
// a single Write (one syscall on TCP, one rendezvous on net.Pipe); above
// it the copy would cost more than the write it saves, so the flush falls
// back to a vectored net.Buffers write (writev on TCP).
const coalesceLimit = 64 << 10

// flushFrames writes the queued frames — each already a complete
// length-prefixed wire frame — in as few Writes as possible. scratch and
// bufs are caller-owned reusable backing so a steady-state flush
// allocates nothing.
func flushFrames(conn io.Writer, frames []*frameBuf, scratch *[]byte, bufs *net.Buffers, wire *obs.WireStats) error {
	if len(frames) == 0 {
		return nil
	}
	if len(frames) == 1 {
		wire.RecordFlush(1, len(frames[0].b))
		_, err := conn.Write(frames[0].b)
		return err
	}
	total := 0
	for _, fb := range frames {
		total += len(fb.b)
	}
	if total <= coalesceLimit {
		out := (*scratch)[:0]
		for _, fb := range frames {
			out = append(out, fb.b...)
		}
		*scratch = out
		wire.RecordFlush(len(frames), total)
		_, err := conn.Write(out)
		return err
	}
	nb := (*bufs)[:0]
	for _, fb := range frames {
		nb = append(nb, fb.b)
	}
	wire.RecordFlush(len(frames), total)
	// WriteTo consumes the slice; keep the backing array for reuse.
	_, err := nb.WriteTo(conn)
	*bufs = nb[:0]
	return err
}
