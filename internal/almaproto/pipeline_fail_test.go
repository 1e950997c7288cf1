package almaproto

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"almanac/internal/vclock"
)

// gatedPair wires a client to a server whose writes block on the returned
// release func and whose v4 window is capped at window.
func gatedPair(t *testing.T, window int) (*Client, net.Conn, func()) {
	t.Helper()
	dev := newDevice(t)
	srv := serveDevice(t, dev)
	gate := make(chan struct{})
	// Stall every Write until the gate opens, so tests can pin submissions
	// in flight on the server side.
	srv.hold = func(op Op, _ []byte) {
		if op == OpWrite {
			<-gate
		}
	}
	srv.window = window
	cliEnd, srvEnd := net.Pipe()
	go srv.ServeOne(srvEnd)
	c := NewClient(cliEnd)
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() { release(); c.Close(); srvEnd.Close() })
	return c, srvEnd, release
}

// TestPipelineWindowExhaustion fills the advertised in-flight window and
// checks the submitter blocks — and then drains cleanly once completions
// flow — instead of over-submitting or wedging.
func TestPipelineWindowExhaustion(t *testing.T) {
	c, _, release := gatedPair(t, 2)
	id, err := c.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if id.Window != 2 {
		t.Fatalf("advertised window = %d, want 2", id.Window)
	}
	p, err := c.NewPipeline(0)
	if err != nil {
		t.Fatal(err)
	}
	h := vclock.Time(vclock.Second)
	for lpa := uint64(0); lpa < 2; lpa++ {
		if err := p.Write(lpa, page(c, byte(lpa), id.PageSize), h); err != nil {
			t.Fatalf("write %d inside the window: %v", lpa, err)
		}
	}
	third := make(chan error, 1)
	go func() { third <- p.Write(2, page(c, 2, id.PageSize), h) }()
	select {
	case err := <-third:
		t.Fatalf("third write returned (%v) while the window was full", err)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	select {
	case err := <-third:
		if err != nil {
			t.Fatalf("third write after release: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("third write still blocked after the gate opened")
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for lpa := uint64(0); lpa < 3; lpa++ {
		data, _, err := c.Read(lpa, h+vclock.Time(vclock.Second))
		if err != nil {
			t.Fatalf("readback %d: %v", lpa, err)
		}
		if data[0] != byte(lpa) {
			t.Fatalf("readback %d: got %#x", lpa, data[0])
		}
	}
}

// TestPipelineServerCloseMidFlight kills the server connection while the
// window is full and a submitter is blocked on it: the blocked call, the
// flush, and every later submission must all fail fast with ErrConnClosed
// rather than hang.
func TestPipelineServerCloseMidFlight(t *testing.T) {
	c, srvEnd, _ := gatedPair(t, 2)
	id, err := c.Identify()
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.NewPipeline(0)
	if err != nil {
		t.Fatal(err)
	}
	h := vclock.Time(vclock.Second)
	for lpa := uint64(0); lpa < 2; lpa++ {
		if err := p.Write(lpa, page(c, byte(lpa), id.PageSize), h); err != nil {
			t.Fatalf("write %d inside the window: %v", lpa, err)
		}
	}
	third := make(chan error, 1)
	go func() { third <- p.Write(2, page(c, 2, id.PageSize), h) }()

	srvEnd.Close()
	select {
	case err := <-third:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("blocked write after server close: %v, want ErrConnClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked write hung after server close")
	}
	if err := p.Flush(); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("flush after server close: %v, want ErrConnClosed", err)
	}
	if _, err := c.SubmitWrite(3, page(c, 3, id.PageSize), h); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("submit after server close: %v, want ErrConnClosed", err)
	}
}

// TestClientCloseDuringCoalescedFlush closes the client while its writer
// goroutine is blocked mid-flush (the peer never reads, so the pipe Write
// parks) with more frames queued behind the stuck one. Close must
// unblock the flush, every in-flight Wait must surface a typed
// ErrConnClosed, and Close itself must return instead of waiting on the
// wedged writer.
func TestClientCloseDuringCoalescedFlush(t *testing.T) {
	cliEnd, srvEnd := net.Pipe()
	defer srvEnd.Close()
	c := NewClient(cliEnd)
	// White-box: skip Identify (there is no server) and force the tagged
	// transport on directly.
	c.mu.Lock()
	c.version = CurrentVersion
	c.mu.Unlock()
	c.enableTagged()

	h := vclock.Time(vclock.Second)
	data := make([]byte, 512)
	var pends []*PendingWrite
	for lpa := uint64(0); lpa < 8; lpa++ {
		w, err := c.SubmitWrite(lpa, data, h)
		if err != nil {
			t.Fatalf("submit %d: %v", lpa, err)
		}
		pends = append(pends, w)
	}
	// Let the writer park inside the pipe Write with the rest of the
	// frames queued for the next coalesced flush.
	time.Sleep(20 * time.Millisecond)

	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on the mid-flush writer")
	}
	for i, w := range pends {
		done := make(chan error, 1)
		go func() {
			_, err := w.Wait()
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrConnClosed) {
				t.Fatalf("wait %d after close: %v, want ErrConnClosed", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("wait %d hung after close", i)
		}
	}
	if _, err := c.SubmitWrite(9, data, h); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("submit after close: %v, want ErrConnClosed", err)
	}
}

// TestSubmitWaitServerClose pins the bare Submit/Wait surface: a Wait on
// an in-flight submission reports ErrConnClosed when the peer vanishes.
func TestSubmitWaitServerClose(t *testing.T) {
	c, srvEnd, _ := gatedPair(t, 4)
	id, err := c.Identify()
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.SubmitWrite(0, page(c, 1, id.PageSize), vclock.Time(vclock.Second))
	if err != nil {
		t.Fatal(err)
	}
	srvEnd.Close()
	done := make(chan error, 1)
	go func() {
		_, err := w.Wait()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("wait after server close: %v, want ErrConnClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("wait hung after server close")
	}
}
