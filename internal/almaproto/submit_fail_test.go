package almaproto

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"almanac/internal/vclock"
)

// gatedPair wires a client to a server whose writes block on the returned
// release func and whose v4 window is capped at window. entered counts the
// writes the server has started executing.
func gatedPair(t *testing.T, window int) (c *Client, srvEnd net.Conn, release func(), entered *atomic.Int32) {
	t.Helper()
	dev := newDevice(t)
	srv := serveDevice(t, dev)
	gate := make(chan struct{})
	entered = new(atomic.Int32)
	// Stall every Write until the gate opens, so tests can pin submissions
	// in flight on the server side.
	srv.hold = func(op Op, _ []byte) {
		if op == OpWrite {
			entered.Add(1)
			<-gate
		}
	}
	srv.window = window
	cliEnd, srvEnd := net.Pipe()
	go srv.ServeOne(srvEnd)
	c = NewClient(cliEnd)
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() { release(); c.Close(); srvEnd.Close() })
	return c, srvEnd, release, entered
}

// within fails the test unless fn returns inside ten seconds.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s hung", what)
	}
}

// waitClosed collects the submissions, every Wait on its own goroutine at
// once, and checks that each fails with ErrConnClosed inside the timeout.
func waitClosed(t *testing.T, what string, pends ...*rawPending) {
	t.Helper()
	errs := make(chan error, len(pends))
	for _, w := range pends {
		go func() {
			_, err := waitDone(w)
			errs <- err
		}()
	}
	timeout := time.After(10 * time.Second)
	for range pends {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrConnClosed) {
				t.Fatalf("%s: %v, want ErrConnClosed", what, err)
			}
		case <-timeout:
			t.Fatalf("%s hung", what)
		}
	}
}

// noFrameLeased checks that neither of the client's pools has a buffer out
// on lease: every request frame was flushed or dropped, every response
// frame decoded or discarded.
func noFrameLeased(t *testing.T, c *Client) {
	t.Helper()
	for name, p := range map[string]*framePool{"request": &c.reqPool, "response": &c.respPool} {
		p.mu.Lock()
		n := p.leased
		p.mu.Unlock()
		if n != 0 {
			t.Errorf("%d %s frames still leased on a dead connection", n, name)
		}
	}
}

// TestSubmitWindowExhaustion over-submits the advertised in-flight window.
// Submission never blocks the caller; it is the server that stops dispatching
// at its window — the frames past it wait in the transport — and
// everything drains cleanly once completions flow.
func TestSubmitWindowExhaustion(t *testing.T) {
	c, _, release, entered := gatedPair(t, 2)
	id, err := c.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if id.Window != 2 {
		t.Fatalf("advertised window = %d, want 2", id.Window)
	}
	h := vclock.Time(vclock.Second)
	var pends []*rawPending
	within(t, "submitting past the window", func() {
		for lpa := uint64(0); lpa < 4; lpa++ {
			w, err := c.submitWrite(lpa, page(c, byte(lpa), id.PageSize), h)
			if err != nil {
				t.Errorf("submit %d: %v", lpa, err)
				return
			}
			pends = append(pends, w)
		}
	})
	if len(pends) != 4 {
		t.FailNow()
	}
	for entered.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	if n := entered.Load(); n != 2 {
		t.Fatalf("server dispatched %d writes with a window of 2", n)
	}
	release()
	within(t, "draining after the gate opened", func() {
		for i := len(pends) - 1; i >= 0; i-- {
			if _, err := waitDone(pends[i]); err != nil {
				t.Errorf("wait %d: %v", i, err)
			}
		}
	})
	for lpa := uint64(0); lpa < 4; lpa++ {
		data, _, err := c.Read(lpa, h+vclock.Time(vclock.Second))
		if err != nil {
			t.Fatalf("readback %d: %v", lpa, err)
		}
		if data[0] != byte(lpa) {
			t.Fatalf("readback %d: got %#x", lpa, data[0])
		}
	}
}

// TestSubmitServerCloseMidFlight kills the server connection while the
// window is full and more frames wait behind it. There is no reader
// goroutine to notice: the first Wait reads the dead connection, and every
// outstanding submission — not only that waiter's — and every later one
// must fail fast with ErrConnClosed rather than hang, stranding no frame.
func TestSubmitServerCloseMidFlight(t *testing.T) {
	c, srvEnd, _, entered := gatedPair(t, 2)
	id, err := c.Identify()
	if err != nil {
		t.Fatal(err)
	}
	h := vclock.Time(vclock.Second)
	var pends []*rawPending
	for lpa := uint64(0); lpa < 4; lpa++ {
		w, err := c.submitWrite(lpa, page(c, byte(lpa), id.PageSize), h)
		if err != nil {
			t.Fatalf("submit %d: %v", lpa, err)
		}
		pends = append(pends, w)
	}
	for entered.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	srvEnd.Close()
	waitClosed(t, "wait after server close", pends...)
	if _, err := c.submitWrite(9, page(c, 3, id.PageSize), h); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("submit after server close: %v, want ErrConnClosed", err)
	}
	c.Close()
	noFrameLeased(t, c)
}

// taggedClient is a white-box client whose handshake is taken as done and
// no server: the test plays the peer on the returned end.
func taggedClient(t *testing.T) (*Client, net.Conn) {
	t.Helper()
	cliEnd, srvEnd := net.Pipe()
	t.Cleanup(func() { srvEnd.Close() })
	c := NewClient(cliEnd)
	c.opened.Do(func() {})
	return c, srvEnd
}

// TestClientCloseDuringCoalescedFlush closes the client while its writer
// goroutine is blocked mid-flush (the peer reads the first frame — the one
// its submitter flushes itself — and then stops, so the writer's pipe Write
// parks) with more frames queued behind the stuck one. Close must unblock
// the flush, every in-flight Wait must surface a typed ErrConnClosed, and
// Close itself must return instead of waiting on the wedged writer.
func TestClientCloseDuringCoalescedFlush(t *testing.T) {
	c, srvEnd := taggedClient(t)
	go func() { _, _ = readFrame(srvEnd) }()

	h := vclock.Time(vclock.Second)
	data := make([]byte, 512)
	var pends []*rawPending
	for lpa := uint64(0); lpa < 8; lpa++ {
		w, err := c.submitWrite(lpa, data, h)
		if err != nil {
			t.Fatalf("submit %d: %v", lpa, err)
		}
		pends = append(pends, w)
	}
	// Let the writer park inside the pipe Write with the rest of the
	// frames queued for the next coalesced flush.
	time.Sleep(20 * time.Millisecond)

	within(t, "Close on the mid-flush writer", func() { c.Close() })
	waitClosed(t, "wait after close", pends...)
	if _, err := c.submitWrite(9, data, h); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("submit after close: %v, want ErrConnClosed", err)
	}
	noFrameLeased(t, c)
}

// TestResetMidFrame cuts the connection in the middle of a completion:
// the peer answers three requests with a frame header promising 100 bytes,
// ten of them, and a close. The waiter that is reading gets a short read,
// and all three waiters — the reader and the two blocked on its token —
// fail with ErrConnClosed; the half-read frame goes back to its pool.
func TestResetMidFrame(t *testing.T) {
	c, srvEnd := taggedClient(t)
	go func() {
		for i := 0; i < 3; i++ {
			if _, err := readFrame(srvEnd); err != nil {
				return
			}
		}
		var torn [14]byte
		binary.LittleEndian.PutUint32(torn[:], 100)
		_, _ = srvEnd.Write(torn[:])
		srvEnd.Close()
	}()
	h := vclock.Time(vclock.Second)
	var pends []*rawPending
	for lpa := uint64(0); lpa < 3; lpa++ {
		w, err := c.submitWrite(lpa, make([]byte, 512), h)
		if err != nil {
			t.Fatalf("submit %d: %v", lpa, err)
		}
		pends = append(pends, w)
	}
	waitClosed(t, "wait across a mid-frame reset", pends...)
	if _, err := c.submitLPA(OpRead, 0, h); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("submit after reset: %v, want ErrConnClosed", err)
	}
	c.Close()
	noFrameLeased(t, c)
}

// TestSubmitWaitServerClose pins the bare submit/wait path: a wait on
// an in-flight submission reports ErrConnClosed when the peer vanishes.
func TestSubmitWaitServerClose(t *testing.T) {
	c, srvEnd, _, _ := gatedPair(t, 4)
	id, err := c.Identify()
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.submitWrite(0, page(c, 1, id.PageSize), vclock.Time(vclock.Second))
	if err != nil {
		t.Fatal(err)
	}
	srvEnd.Close()
	waitClosed(t, "wait after server close", w)
}

// halfDeadConn fails every Write and blocks every Read until it is closed:
// a connection whose write side broke first.
type halfDeadConn struct {
	closed chan struct{}
	once   sync.Once
}

func (h *halfDeadConn) Read([]byte) (int, error)  { <-h.closed; return 0, net.ErrClosed }
func (h *halfDeadConn) Write([]byte) (int, error) { return 0, errors.New("write side gone") }
func (h *halfDeadConn) Close() error              { h.once.Do(func() { close(h.closed) }); return nil }

// TestWriteFailureWakesReadingWaiter: the waiter holding the reader token
// is blocked in Read when a flush fails. Its failure is delivered like
// everyone's, but only the connection can wake it — so a flush failure
// closes the connection.
func TestWriteFailureWakesReadingWaiter(t *testing.T) {
	c := NewClient(&halfDeadConn{closed: make(chan struct{})})
	c.opened.Do(func() {}) // the handshake is taken as done
	defer c.Close()
	// Register a submission without sending it, as if its frame had gone
	// out while the connection was healthy, and wait on it.
	c.pmu.Lock()
	p := c.leasePending()
	c.pend[c.nextID] = p.ch
	c.nextID++
	c.pmu.Unlock()
	reading := make(chan error, 1)
	go func() { reading <- p.wait().err }()
	for len(c.rtoken) != 0 {
		time.Sleep(time.Millisecond)
	}
	w, err := c.submitWrite(0, make([]byte, 512), vclock.Time(vclock.Second))
	if err != nil {
		t.Fatal(err)
	}
	waitClosed(t, "wait on the submission whose flush failed", w)
	within(t, "the waiter that was reading", func() {
		if err := <-reading; !errors.Is(err, ErrConnClosed) {
			t.Errorf("reading waiter: %v, want ErrConnClosed", err)
		}
	})
}
