package almaproto

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"almanac/internal/array"
	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/service"
	"almanac/internal/vclock"
)

// The properties the three queues — shard worker, send queue, demux — used
// to give for free, now that a lone frame bypasses all three.

// goid returns the calling goroutine's id, from the first line of its
// stack ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	var id uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// whoConn records which goroutines read and wrote a connection.
type whoConn struct {
	io.ReadWriteCloser
	mu             sync.Mutex
	readers, wrote map[uint64]int
}

func newWhoConn(c io.ReadWriteCloser) *whoConn {
	return &whoConn{ReadWriteCloser: c, readers: map[uint64]int{}, wrote: map[uint64]int{}}
}

func (w *whoConn) Read(p []byte) (int, error) {
	id := goid()
	w.mu.Lock()
	w.readers[id]++
	w.mu.Unlock()
	return w.ReadWriteCloser.Read(p)
}

func (w *whoConn) Write(p []byte) (int, error) {
	id := goid()
	w.mu.Lock()
	w.wrote[id]++
	w.mu.Unlock()
	return w.ReadWriteCloser.Write(p)
}

// onlyKey returns the key of a one-entry map.
func onlyKey(m map[uint64]int) uint64 {
	for k := range m {
		return k
	}
	return 0
}

// reset forgets what was recorded so far; snapshot copies it out.
func (w *whoConn) reset() {
	w.mu.Lock()
	clear(w.readers)
	clear(w.wrote)
	w.mu.Unlock()
}

func (w *whoConn) snapshot() (readers, wrote map[uint64]int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	readers, wrote = map[uint64]int{}, map[uint64]int{}
	for k, v := range w.readers {
		readers[k] = v
	}
	for k, v := range w.wrote {
		wrote[k] = v
	}
	return readers, wrote
}

// TestLoneFrameRunsOnTwoGoroutines is the tentpole's claim as a test: with
// one one-op frame in flight, the only goroutine that touches the client's
// end of the connection is the caller (it writes its request and reads its
// own answer), and the only one that touches the server's end is the
// reader (it writes the answer itself) — the writers stay parked. With two
// multi-op frames in flight, the writer goroutines do the writing, as they
// always did.
func TestLoneFrameRunsOnTwoGoroutines(t *testing.T) {
	svc := newServiceArray(t)
	srv := NewServiceServer(svc)
	cliEnd, srvEnd := net.Pipe()
	cw, sw := newWhoConn(cliEnd), newWhoConn(srvEnd)
	go srv.ServeOne(sw)
	c := NewClient(cw)
	t.Cleanup(func() { c.Close(); srvEnd.Close() })

	at := vclock.Time(vclock.Hour)
	if _, err := c.VolCreate("two", "k", 64, 0, at); err != nil {
		t.Fatal(err)
	}
	info, err := c.VolAttach("two", "k", at)
	if err != nil {
		t.Fatal(err)
	}
	data := page(c, 9, 512)
	one := func(i int) {
		t.Helper()
		at = at.Add(vclock.Millisecond)
		op := service.BatchOp{Kind: service.KindWrite, LPA: uint64(i % 64), Data: data, At: at}
		if i%2 == 1 {
			op = service.BatchOp{Kind: service.KindRead, LPA: uint64(i % 64), At: at}
		}
		res, err := c.Batch(info.ID, []service.BatchOp{op})
		if err != nil || res[0].Err != nil {
			t.Fatalf("op %d: %v %v", i, err, res)
		}
	}
	// The answer to VolAttach came from a dispatch goroutine, which gives
	// its window slot back only after its Write returns: the next frame can
	// find that slot still held and go to the writer goroutine, whose own
	// slot release races the frame after it in turn. Warm up until the
	// server's reader writes an answer itself. That proves the window was
	// empty and the writer parked when the frame arrived, and from then on
	// the reader gives back every slot before it reads again.
	for try := 0; ; try++ {
		if try == 100 {
			t.Fatal("after 100 warm-up frames the server's reader has not written an answer itself")
		}
		sw.reset()
		one(0)
		if r, w := sw.snapshot(); len(w) == 1 && r[onlyKey(w)] > 0 {
			break
		}
	}
	cw.reset()
	sw.reset()
	const n = 200
	for i := 0; i < n; i++ {
		one(i)
	}
	me := goid()
	cr, cwr := cw.snapshot()
	if len(cr) != 1 || cr[me] == 0 || len(cwr) != 1 || cwr[me] != n {
		t.Errorf("client end: read by %v, written by %v; want only the caller (goroutine %d), %d writes", cr, cwr, me, n)
	}
	sr, swr := sw.snapshot()
	if len(sr) != 1 || len(swr) != 1 {
		t.Fatalf("server end: read by %v, written by %v; want one goroutine doing both", sr, swr)
	}
	for reader := range sr {
		if swr[reader] != n {
			t.Errorf("server end: reader %d wrote %d of %d answers (writes by %v)", reader, swr[reader], n, swr)
		}
	}

	// Two 16-op frames in flight: neither end's producer may write the
	// second frame, and the server's reader writes neither answer.
	cw.reset()
	sw.reset()
	ops := make([]service.BatchOp, 16)
	for i := range ops {
		at = at.Add(vclock.Millisecond)
		ops[i] = service.BatchOp{Kind: service.KindWrite, LPA: uint64(i), Data: data, At: at}
	}
	a, err := c.SubmitBatch(info.ID, ops)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.SubmitBatch(info.ID, ops)
	if err != nil {
		t.Fatal(err)
	}
	for _, pb := range []*PendingBatch{b, a} {
		if _, err := pb.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	_, cwr = cw.snapshot()
	if cwr[me] != 1 || len(cwr) != 2 {
		t.Errorf("client end under load: written by %v; want the caller once and the writer goroutine for the rest", cwr)
	}
	sr, swr = sw.snapshot()
	for reader := range sr {
		if swr[reader] != 0 {
			t.Errorf("server end under load: the reader wrote %d multi-op answers itself", swr[reader])
		}
	}
}

// pipeService4K serves a two-shard array of 4 KiB pages over net.Pipe with
// the given window, so a 16-read frame answers with 64 KiB.
func pipeService4K(t *testing.T, window int) *Client {
	t.Helper()
	fc := flash.DefaultConfig()
	fc.Channels = 2
	fc.ChipsPerChannel = 1
	fc.BlocksPerPlane = 16
	fc.PagesPerBlock = 16
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0
	arr, err := array.New(array.Config{Shards: 2, Shard: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { arr.Close() })
	srv := NewServiceServer(service.New(arr))
	srv.window = window
	cliEnd, srvEnd := net.Pipe()
	go srv.ServeOne(srvEnd)
	c := NewClient(cliEnd)
	t.Cleanup(func() { c.Close(); srvEnd.Close() })
	return c
}

// TestNoDeadlockOnZeroBufferTransport: net.Pipe has no buffer, so a Write
// returns only when the peer reads, and any goroutine that writes when it
// should be reading wedges both ends. A submitter fills the whole window
// with all-read 16-op frames — 64 KiB answers, nothing a kernel buffer
// could hide on TCP — before it waits for anything, then waits
// newest-first, so the answer it asks for is behind every other; then four
// goroutines do that at once on the one connection, over-subscribing the
// window four times.
func TestNoDeadlockOnZeroBufferTransport(t *testing.T) {
	const window = 8
	c := pipeService4K(t, window)
	id, err := c.Identify()
	if err != nil {
		t.Fatal(err)
	}
	at := vclock.Time(vclock.Hour)
	if _, err := c.VolCreate("pipe", "k", 64, 0, at); err != nil {
		t.Fatal(err)
	}
	info, err := c.VolAttach("pipe", "k", at)
	if err != nil {
		t.Fatal(err)
	}
	fill := make([]service.BatchOp, 16)
	for i := range fill {
		at = at.Add(vclock.Millisecond)
		fill[i] = service.BatchOp{Kind: service.KindWrite, LPA: uint64(i), Data: page(c, byte(i+1), id.PageSize), At: at}
	}
	if _, err := c.Batch(info.ID, fill); err != nil {
		t.Fatal(err)
	}
	at = at.Add(vclock.Second)
	reads := make([]service.BatchOp, 16)
	for i := range reads {
		reads[i] = service.BatchOp{Kind: service.KindRead, LPA: uint64(i), At: at}
	}
	fullWindowNewestFirst := func() {
		pends := make([]*PendingBatch, window)
		for i := range pends {
			pb, err := c.SubmitBatch(info.ID, reads)
			if err != nil {
				t.Error(err)
				return
			}
			pends[i] = pb
		}
		for i := len(pends) - 1; i >= 0; i-- {
			res, err := pends[i].Wait()
			if err != nil {
				t.Error(err)
				return
			}
			for j, r := range res {
				if r.Err != nil || len(r.Data) != id.PageSize || r.Data[0] != byte(j+1) {
					t.Errorf("frame %d read %d: %v", i, j, r.Err)
					return
				}
			}
		}
	}
	within(t, "one submitter, a full window, newest first", fullWindowNewestFirst)
	within(t, "four submitters, a full window each", func() {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() { defer wg.Done(); fullWindowNewestFirst() }()
		}
		wg.Wait()
	})
}

// TestOrderAcrossQueuedAndInlinePaths: a 16-op frame goes to the shard
// workers and the writer; a one-op frame right behind it may run on the
// server's reader. On one connection the second must still see the first:
// sixteen successive writes to one LPA, then at once a one-op read of it,
// which has to return the sixteenth.
func TestOrderAcrossQueuedAndInlinePaths(t *testing.T) {
	c, _ := servicePipe(t)
	at := vclock.Time(vclock.Hour)
	if _, err := c.VolCreate("order", "k", 64, 0, at); err != nil {
		t.Fatal(err)
	}
	info, err := c.VolAttach("order", "k", at)
	if err != nil {
		t.Fatal(err)
	}
	iters := 10000
	if testing.Short() {
		iters = 1000
	}
	pages := make([][]byte, 256)
	for i := range pages {
		pages[i] = page(c, byte(i), 512)
	}
	writes := make([]service.BatchOp, 16)
	read := make([]service.BatchOp, 1)
	for i := 0; i < iters; i++ {
		lpa := uint64(i % 64)
		for j := range writes {
			at = at.Add(vclock.Millisecond)
			writes[j] = service.BatchOp{Kind: service.KindWrite, LPA: lpa, Data: pages[(i+j)%256], At: at}
		}
		at = at.Add(vclock.Millisecond)
		read[0] = service.BatchOp{Kind: service.KindRead, LPA: lpa, At: at}
		w, err := c.SubmitBatch(info.ID, writes)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.SubmitBatch(info.ID, read)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Wait()
		if err != nil || got[0].Err != nil {
			t.Fatalf("iteration %d: read: %v %v", i, err, got)
		}
		if want := byte((i + 15) % 256); got[0].Data[0] != want {
			t.Fatalf("iteration %d: the one-op read saw %#x, want the frame before it's last write %#x", i, got[0].Data[0], want)
		}
		if _, err := w.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReaderTokenLiveness: the waiter that holds the reader token is
// waiting for an answer the server is sitting on. Another caller's short
// request must complete anyway — the token holder reads its answer and
// passes it on — without waiting for the token holder's own.
func TestReaderTokenLiveness(t *testing.T) {
	dev := newDevice(t)
	srv := serveDevice(t, dev)
	entered, release := make(chan struct{}), make(chan struct{})
	srv.hold = func(op Op, _ []byte) {
		if op == OpTimeQueryRange {
			close(entered)
			<-release
		}
	}
	cliEnd, srvEnd := net.Pipe()
	go srv.ServeOne(srvEnd)
	c := NewClient(cliEnd)
	t.Cleanup(func() { c.Close(); srvEnd.Close() })
	id, err := c.Identify()
	if err != nil {
		t.Fatal(err)
	}
	at := vclock.Time(vclock.Hour)
	slow := make(chan error, 1)
	go func() {
		_, _, err := c.TimeQueryRange(0, at, at)
		slow <- err
	}()
	<-entered
	for len(c.rtoken) != 0 { // until the slow caller is the reader
		time.Sleep(time.Millisecond)
	}
	within(t, "a short request behind a held-back one", func() {
		if _, err := c.Write(1, page(c, 5, id.PageSize), at); err != nil {
			t.Error(err)
		}
		data, _, err := c.Read(1, at.Add(vclock.Second))
		if err != nil || !bytes.Equal(data, page(c, 5, id.PageSize)) {
			t.Errorf("read behind a held-back request: %v", err)
		}
	})
	select {
	case err := <-slow:
		t.Fatalf("the held-back request returned early: %v", err)
	default:
	}
	close(release)
	within(t, "the held-back request after release", func() {
		if err := <-slow; err != nil {
			t.Error(err)
		}
	})
}

// gateWriter is a connection whose Writes block until released, recording
// what was written and in how many calls.
type gateWriter struct {
	gate   chan struct{}
	mu     sync.Mutex
	writes [][]byte
}

func (g *gateWriter) Write(p []byte) (int, error) {
	<-g.gate
	g.mu.Lock()
	g.writes = append(g.writes, append([]byte(nil), p...))
	g.mu.Unlock()
	return len(p), nil
}

// TestSendQueueInlineFlush drives the send queue's three states directly.
// Idle and alone: the producer writes, and the writer goroutine is never
// woken. Items queued behind an inline flush are not written concurrently
// with it: they wait, in order, and the producer hands them to the writer
// when it is done. Alone but with the write side taken: queued, as ever. A
// stop that arrives during an inline flush waits for it.
func TestSendQueueInlineFlush(t *testing.T) {
	var pool framePool
	frame := func(b byte) *frameBuf {
		fb := pool.acquire(4)
		copy(fb.b, []byte{b, b, b, b})
		return fb
	}
	g := &gateWriter{gate: make(chan struct{}, 16)}
	flushes := 0
	q := newSendQueue(g, &pool, nil, func(fb *frameBuf) *frameBuf { return fb }, func(int, error) { flushes++ })

	g.gate <- struct{}{}
	if !q.enqueue(frame(1), true) {
		t.Fatal("enqueue on a live queue reported stopped")
	}
	q.mu.Lock()
	idle := !q.signaled && len(q.q) == 0
	q.mu.Unlock()
	if len(g.writes) != 1 || !idle || len(q.wake) != 0 {
		t.Fatalf("lone frame: %d writes, idle=%v, %d wake tokens; want it written by the producer and the writer left parked", len(g.writes), idle, len(q.wake))
	}

	// An inline flush stuck in Write, with two frames arriving behind it —
	// one of them claiming to be alone.
	inline := make(chan struct{})
	go func() { q.enqueue(frame(2), true); close(inline) }()
	for {
		q.mu.Lock()
		held := q.signaled
		q.mu.Unlock()
		if held {
			break
		}
		time.Sleep(time.Millisecond)
	}
	within(t, "enqueue behind an inline flush", func() {
		q.enqueue(frame(3), false)
		q.enqueue(frame(4), true)
	})
	time.Sleep(10 * time.Millisecond)
	g.mu.Lock()
	n := len(g.writes)
	g.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d writes while the inline flush held the write side, want none past the first", n-1)
	}
	stopped := make(chan struct{})
	go func() { q.stop(); close(stopped) }()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-stopped:
		t.Fatal("stop returned while an inline flush was in progress")
	default:
	}
	g.gate <- struct{}{}
	g.gate <- struct{}{}
	<-inline
	within(t, "stop after the inline flush", func() { <-stopped })
	want := [][]byte{{1, 1, 1, 1}, {2, 2, 2, 2}, {3, 3, 3, 3, 4, 4, 4, 4}}
	if len(g.writes) != len(want) {
		t.Fatalf("writes %v, want %v", g.writes, want)
	}
	for i := range want {
		if !bytes.Equal(g.writes[i], want[i]) {
			t.Fatalf("write %d = %v, want %v (frames behind an inline flush go out in order, coalesced by the writer)", i, g.writes[i], want[i])
		}
	}
	if q.enqueue(frame(5), true) {
		t.Fatal("enqueue after stop reported success")
	}
	if pool.leased != 1 { // frame 5, refused and still the caller's
		t.Fatalf("%d frames leased, want only the refused one", pool.leased)
	}
}
