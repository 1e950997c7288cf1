package almaproto

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"almanac/internal/array"
	"almanac/internal/obs"
	"almanac/internal/service"
)

// Server exposes one volume service — and, through it, the striped array
// the service carves its volumes from — over the command protocol. There
// is one way to serve: a single device is a 1-shard array
// (array.Assemble of one TimeSSD), which answers every opcode exactly as
// the bare device would (array.TestOneShardArrayIsIdentity).
//
// Locking model: the server holds no lock around a command. Block I/O and
// the array-wide TimeKits go straight to the array, where one goroutine at
// a time executes on a shard — its worker, or a synchronous caller that
// found it idle: a shard is that device's one command interpreter, so
// commands to one shard serialise exactly as they would on the paper's
// board — a long TimeQueryAll occupies the firmware (§3.9) and delays what
// queues behind it on the same shard — while commands to different shards
// run in parallel. Identify and Stats read the published per-shard
// snapshots and never queue. Bytes a command returns are copies the array
// made while the shard was held, so encoding them after the shard has
// moved on is safe. The volume opcodes go to the service, which guards its
// catalogue with its own mutex and reaches the devices only through the
// array.
//
// Connections are handled concurrently; the protocol layer (framing,
// decode, encode) is lock-free, and per-connection state is the
// taggedConn below.
type Server struct {
	svc *service.Service
	arr *array.Array // svc.Array()

	// window is the per-connection in-flight bound of the tagged
	// transport. hold, when a test sets it, runs before each command
	// executes, on the goroutine dispatching it: the seam tests use to pin
	// a command in flight.
	window int
	hold   func(op Op, body []byte)

	lnMu     sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	wg       sync.WaitGroup

	// Transport telemetry: per-connection WireStats folded into a
	// server-wide total as connections end (see WireSnapshot).
	wireMu    sync.Mutex
	wireTotal obs.WireCounters
	wireLive  map[*obs.WireStats]struct{}
}

// DefaultWindow is the per-connection in-flight window advertised to
// clients: deep enough to keep every shard queue of a typical array busy,
// shallow enough to bound per-connection server memory.
const DefaultWindow = 128

// NewServiceServer is the one constructor. Block I/O and array-wide
// TimeKits route to the array under svc; the v4 volume opcodes
// (create/delete/list/attach, per-volume rollback and stats, OpBatch)
// route to svc itself. To serve a single device, assemble it into a
// 1-shard array first.
func NewServiceServer(svc *service.Service) *Server {
	return &Server{svc: svc, arr: svc.Array(), window: DefaultWindow, conns: make(map[net.Conn]struct{})}
}

// Metrics returns the array's observability snapshot, as OpMetrics does.
// The daemon's -metrics-addr HTTP listener reads through here rather than
// touching the devices directly.
func (s *Server) Metrics() obs.Snapshot { return s.arr.ObsSnapshot() }

// WireSnapshot aggregates the transport counters — frames and bytes per
// direction, Write calls, coalesced flushes — over every tagged
// connection the server has handled, live connections included.
func (s *Server) WireSnapshot() obs.WireCounters {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	out := s.wireTotal
	for ws := range s.wireLive {
		out.Add(ws.Snapshot())
	}
	return out
}

func (s *Server) trackWire(ws *obs.WireStats) {
	s.wireMu.Lock()
	if s.wireLive == nil {
		s.wireLive = make(map[*obs.WireStats]struct{})
	}
	s.wireLive[ws] = struct{}{}
	s.wireMu.Unlock()
}

func (s *Server) untrackWire(ws *obs.WireStats) {
	s.wireMu.Lock()
	s.wireTotal.Add(ws.Snapshot())
	delete(s.wireLive, ws)
	s.wireMu.Unlock()
}

// Serve accepts connections on ln until Close or Shutdown. It blocks.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.wg.Wait()
			return err
		}
		s.lnMu.Lock()
		if s.draining {
			s.lnMu.Unlock()
			_ = conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.lnMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.lnMu.Lock()
				delete(s.conns, conn)
				s.lnMu.Unlock()
				_ = conn.Close()
			}()
			s.ServeOne(conn)
		}()
	}
}

// Close stops the listener; Serve returns after in-flight connections end.
func (s *Server) Close() error {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

// Shutdown drains gracefully: it stops accepting, lets every in-flight
// frame finish (response written), then unblocks connections idling in a
// read. Commands never race the caller's post-Shutdown work (such as
// saving a device image) — a frame either completed before Shutdown
// returned or was never read.
func (s *Server) Shutdown() error {
	s.lnMu.Lock()
	s.draining = true
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	// An expired read deadline makes the *next* readFrame fail without
	// affecting a dispatch already in progress or its response write.
	for conn := range s.conns {
		//almalint:allow wallclock reason: network read deadlines are host wall time, not simulated time
		_ = conn.SetReadDeadline(time.Now())
	}
	s.lnMu.Unlock()
	s.wg.Wait()
	return err
}

// ServeOne handles exactly one connection (Serve runs it per accepted
// connection; tests call it over net.Pipe): the untagged handshake, then
// the tagged transport until the peer goes away. A peer whose handshake is
// refused gets one untagged error frame and the connection ends there.
//
// The tagged transport is split into a reader (this goroutine) and a
// completion-draining writer (sendQueue): the reader pulls tagged frames
// into pooled buffers, OpBatch frames go to serveBatch, which submits
// every op to its shard in one pass, every other opcode dispatches on its
// own goroutine, and all completions funnel through the sendQueue, whose
// writer goroutine flushes everything ready in as few Writes as possible.
// Every frame takes one path: its payload is decoded whole and a bad one
// is refused before anything runs; then it runs, and its response is
// encoded once, straight into the pooled frame that goes on the wire. The
// in-flight window is a semaphore acquired before dispatching: when the
// window is full the loop stops reading, and the transport's flow control
// backpressures the submitter (a full NVMe submission queue); a slot is
// released per frame flushed.
//
// A frame alone on its connection — the window holds its slot and no
// other — is flushed by whoever produced its completion instead of by the
// writer (see sendQueue for why alone is the condition). For a one-op
// OpBatch that producer is this goroutine, and the op itself runs here
// when its shard is idle (service.StartBatch), so a synchronous client's
// request is read, executed, encoded and written by the one goroutine
// that was blocked on its socket, waking nobody. A multi-op batch is
// still executing on the shard workers when the reader has submitted it,
// so it always goes to the writer: the reader never waits for a shard it
// has queued work on.
//
// On read error (peer gone, or the Shutdown drain deadline) the loop
// waits for every in-flight dispatch, then stops the writer, which
// drains and flushes every queued completion before exiting — graceful
// shutdown drains pipelined requests instead of dropping them (a frame
// the reader flushed itself was on the wire before it read again). This
// is what lets almanacd save shard images knowing no command is still
// mutating the device.
func (s *Server) ServeOne(conn io.ReadWriter) {
	body, err := readFrame(conn)
	if err != nil {
		return // EOF, broken peer, or drain deadline
	}
	resp, ok := s.handshake(body)
	if writeFrame(conn, resp) != nil || !ok {
		return
	}
	wire := &obs.WireStats{}
	s.trackWire(wire)
	defer s.untrackWire(wire)
	slots := make(chan struct{}, s.window)
	tc := &taggedConn{attached: make(map[uint32]*service.Volume), free: make(chan *pendingBatch, s.window)}
	tc.w = newSendQueue(conn, &tc.respPool, wire, tc.frameOf, func(n int, _ error) {
		for ; n > 0; n-- {
			<-slots // one window slot per frame written (or dropped on a dead connection)
		}
	})
	var wg sync.WaitGroup
	for {
		fb, err := readFrameInto(conn, &tc.reqPool, wire)
		if err != nil {
			break
		}
		if len(fb.b) < 8 {
			// A frame too short to carry a request ID means the peer lost
			// the framing; there is no ID to complete, so hang up.
			tc.reqPool.release(fb)
			break
		}
		reqID := binary.LittleEndian.Uint64(fb.b)
		slots <- struct{}{}
		// Only this goroutine adds to slots, so a length of one means the
		// frame just read is the only one in flight on the connection.
		if len(fb.b) > 8 && Op(fb.b[8]) == OpBatch {
			tc.serveBatch(reqID, fb, len(slots) == 1)
			continue
		}
		wg.Add(1)
		go func(fb *frameBuf, reqID uint64) {
			defer wg.Done()
			out, e := tc.response()
			s.dispatch(tc, fb.b[8:], &e)
			// The request frame is consumed: dispatch is synchronous, so
			// every payload decoded by aliasing has been copied into the
			// device (or the response) by now.
			tc.reqPool.release(fb)
			tc.w.enqueue(wireItem{fb: seal(out, e, reqID)}, len(slots) == 1)
		}(fb, reqID)
	}
	wg.Wait()
	tc.w.stop()
}

// taggedConn is the server's state for one connection: the volumes it
// attached, the request and response frame pools, the coalescing writer,
// and a free list of batch scratch sized to the window (at most that many
// batches are in flight). attached maps volume id → handle for volumes
// this connection authenticated against with OpVolAttach; mu guards it,
// as attaches run concurrently with batch lookups.
type taggedConn struct {
	mu       sync.Mutex
	attached map[uint32]*service.Volume
	reqPool  framePool
	respPool framePool
	w        *sendQueue[wireItem]
	free     chan *pendingBatch
}

// volume resolves an attached volume id; the typed ErrAuth failure tells
// clients authentication (not existence) is what's missing.
func (tc *taggedConn) volume(id uint32) (*service.Volume, error) {
	tc.mu.Lock()
	vol := tc.attached[id]
	tc.mu.Unlock()
	if vol == nil {
		return nil, fmt.Errorf("%w: volume id %d not attached on this connection", service.ErrAuth, id)
	}
	return vol, nil
}

// wireItem is one unit of writer work; exactly one field is set: a ready
// frame (fb) — a dispatched command's completion or a refused batch — or
// a pending batch (pb) the reader already submitted to the shard queues.
type wireItem struct {
	fb *frameBuf
	pb *pendingBatch
}

// pendingBatch is an OpBatch in flight between the reader (which decoded
// it and submitted every op) and the writer (which completes and encodes
// it). ops and run are scratch reused across batches on the connection;
// gen pins the request frame's pool generation so a buffer recycled out
// from under the batch is caught instead of silently decoded.
type pendingBatch struct {
	reqID uint64
	fb    *frameBuf
	gen   uint32
	ops   []service.BatchOp
	run   service.BatchRun
}

// serveBatch serves an OpBatch frame: decode it straight out of the
// pooled request frame (write payloads alias it — zero copies), submit
// every op to its shard in one pass, and hand the pending run to the
// sendQueue: the writer completes and flushes it with the rest of the
// ready output, unless the frame is alone on the connection and a single
// op, which the reader completes and flushes itself. A malformed frame,
// or one for a volume this connection has not attached, is answered with
// an error completion, and none of its ops runs.
func (tc *taggedConn) serveBatch(reqID uint64, fb *frameBuf, alone bool) {
	var pb *pendingBatch
	select {
	case pb = <-tc.free:
	default:
		pb = &pendingBatch{}
	}
	id, ops, err := decodeBatchOps(&dec{b: fb.b[8:], pos: 1}, pb.ops[:0])
	pb.ops = ops // keep grown scratch even when refusing
	var vol *service.Volume
	if err == nil {
		vol, err = tc.volume(id)
	}
	if err != nil {
		tc.free <- pb // never blocks: pb is out of the list, so the list has room
		tc.reqPool.release(fb)
		out, e := tc.response()
		e.fail(err)
		tc.w.enqueue(wireItem{fb: seal(out, e, reqID)}, alone)
		return
	}
	pb.reqID, pb.fb, pb.gen = reqID, fb, fb.gen
	vol.StartBatch(ops, &pb.run)
	tc.w.enqueue(wireItem{pb: pb}, alone && len(ops) == 1)
}

// frameOf is the sendQueue's ready hook, run by whoever holds the write
// side. A pending batch is completed here: wait for its shard commands,
// encode the tagged response into a pooled frame, and release the request
// frame (safe now: every write payload aliasing it has been programmed
// into the device arena by whoever executed it).
func (tc *taggedConn) frameOf(it wireItem) *frameBuf {
	pb := it.pb
	if pb == nil {
		return it.fb
	}
	results := pb.run.Complete()
	out, e := tc.response()
	e.u8(StatusOK)
	encBatchResults(&e, pb.ops, results)
	if pb.fb.stale(pb.gen) {
		panic("almaproto: batch request frame recycled while its ops were in flight")
	}
	tc.reqPool.release(pb.fb)
	pb.fb = nil
	out = seal(out, e, pb.reqID)
	tc.free <- pb // never blocks: cap is the window, and this batch held one of its slots
	return out
}

// response starts a completion: a pooled frame, and an encoder that
// builds the response body in it behind 12 bytes of header room. The
// encoder may outgrow the frame, so the two meet again only in seal.
func (tc *taggedConn) response() (*frameBuf, enc) {
	out := tc.respPool.acquire(12)
	return out, enc{b: out.b[:12]}
}

// seal finishes a completion that response started: the frame takes the
// encoder's bytes, and its header gets the length prefix and the echoed
// request ID.
func seal(out *frameBuf, e enc, reqID uint64) *frameBuf {
	out.b = e.b
	binary.LittleEndian.PutUint32(out.b, uint32(len(out.b)-4))
	binary.LittleEndian.PutUint64(out.b[4:], reqID)
	return out
}
