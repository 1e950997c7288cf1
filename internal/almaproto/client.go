package almaproto

import (
	"fmt"
	"io"
	"net"
	"sync"

	"almanac/internal/core"
	"almanac/internal/obs"
	"almanac/internal/timekits"
	"almanac/internal/vclock"
)

// Client is the host-side driver: it issues protocol commands over a
// connection and exposes the same shapes the in-process TimeKits API does.
// A Client is safe for concurrent use from its first call on: the first
// frame out, whichever call and goroutine sends it, is the handshake (see
// open), and every command after it pipelines on the tagged transport —
// each call still blocks, but it does not queue behind the others.
// SubmitBatch/Wait (client_async.go) is the one asynchronous surface.
//
// Every command is built once and decoded once: a synchronous method is
// its submission followed by its wait.
type Client struct {
	conn io.ReadWriteCloser

	// opened runs the handshake (see open); a failed one is recorded as
	// readErr.
	opened sync.Once

	// Tagged transport state; see client_async.go. rtoken (cap 1) holds
	// the reader token: whoever takes it is the one goroutine reading conn.
	pmu     sync.Mutex
	nextID  uint64
	pend    map[uint64]chan response
	pfree   []*rawPending // recycled pendings (with their channels)
	readErr error
	rtoken  chan struct{}

	// Frame pools: request frames cycle submit → flush → release; response
	// frames cycle reading waiter → typed wait → release. w is the send
	// queue.
	reqPool  framePool
	respPool framePool
	w        *sendQueue[*frameBuf]
}

// Dial connects to an almanacd server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an existing connection (tests use net.Pipe). Nothing is
// sent until the first call.
func NewClient(conn io.ReadWriteCloser) *Client {
	c := &Client{conn: conn, nextID: 1, pend: make(map[uint64]chan response), rtoken: make(chan struct{}, 1)}
	c.rtoken <- struct{}{}
	// A flush failure fails every in-flight submission with a typed
	// ErrConnClosed; the queue drains later frames without writing, so
	// submitters never hang on a dead connection. The framing is lost, so
	// the connection is closed too: the waiter that is reading it has its
	// failure delivered like the others, and this is what wakes it.
	c.w = newSendQueue(conn, &c.reqPool, nil,
		func(fb *frameBuf) *frameBuf { return fb },
		func(_ int, err error) {
			if err != nil {
				c.failPending(fmt.Errorf("%w: %w", ErrConnClosed, err))
				_ = conn.Close() // the write error is the one reported
			}
		})
	return c
}

// Close shuts the connection, stops the writer goroutine and waits for
// it, so every in-flight Wait observes a typed ErrConnClosed failure
// (from whichever waiter is reading, or next reads, the closed
// connection) rather than hanging — closing mid-coalesced-flush is safe:
// the blocked Write fails, the writer fails all pendings, and exits.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.w.stop()
	return err
}

// reqBuf is one request under construction: an encoder positioned past
// the opcode, building in place in a pooled frame (fb) behind 12 bytes of
// header room — u32 frame length and u64 request ID, both stamped by
// send. The encoder may grow past the frame's capacity, so the frame goes
// back to the client through send, never by touching fb.b.
type reqBuf struct {
	enc
	fb *frameBuf
}

// begin starts a request.
func (c *Client) begin(op Op) reqBuf {
	fb := c.reqPool.acquire(12)
	rq := reqBuf{enc: enc{b: fb.b[:12]}, fb: fb}
	rq.u8(uint8(op))
	return rq
}

// roundTrip sends a built request and waits for its completion.
func (c *Client) roundTrip(rq *reqBuf) (response, error) {
	p, err := c.send(rq)
	if err != nil {
		return response{}, err
	}
	r := p.wait()
	return r, r.err
}

// open makes sure the handshake has happened before a tagged frame goes
// out: an untagged Identify announcing CurrentVersion, answered by the
// device's identity. Exactly one caller sends it — whichever gets here
// first, on whatever goroutine — while the others wait for its answer, so
// no command can overtake it. A failed handshake is final: it becomes the
// connection's error, which every later submission reports. fresh says
// this call did the handshake, and id and err are then its outcome.
func (c *Client) open() (id Identity, fresh bool, err error) {
	c.opened.Do(func() {
		fresh = true
		if id, err = c.handshake(); err != nil {
			c.pmu.Lock()
			c.readErr = err
			c.pmu.Unlock()
		}
	})
	return id, fresh, err
}

// handshake sends the untagged Identify and reads its untagged answer.
func (c *Client) handshake() (Identity, error) {
	var e enc
	e.u8(uint8(OpIdentify))
	e.u32(CurrentVersion)
	err := writeFrame(c.conn, e.b)
	var body []byte
	if err == nil {
		body, err = readFrame(c.conn)
	}
	if err != nil {
		return Identity{}, fmt.Errorf("%w: handshake: %w", ErrConnClosed, err)
	}
	d := dec{b: body}
	if err := d.status(); err != nil {
		return Identity{}, err
	}
	return decIdentity(&d)
}

// decIdentity reads an Identify response payload. A server that agrees a
// version below v4 speaks a transport this client does not, so the
// connection is refused rather than desynchronised. Fields a later
// revision appends are ignored.
func decIdentity(d *dec) (Identity, error) {
	id := Identity{
		PageSize:     int(d.u32()),
		LogicalPages: int(d.u64()),
		Channels:     int(d.u32()),
		Shards:       int(d.u32()),
		WindowStart:  d.time(),
		Version:      int(d.u32()),
	}
	if d.err == nil && id.Version < VersionService {
		return Identity{}, fmt.Errorf("almaproto: server agreed protocol v%d; this client requires v%d", id.Version, VersionService)
	}
	id.Window = int(d.u32())
	if d.err != nil {
		return Identity{}, d.err
	}
	return id, nil
}

// Identify fetches device geometry, the retention window start, and the
// connection's protocol version and in-flight window. On a fresh client it
// is the handshake itself; afterwards it is an ordinary tagged command
// that reports the version and window the handshake agreed.
func (c *Client) Identify() (Identity, error) {
	if id, fresh, err := c.open(); err != nil || fresh {
		return id, err
	}
	rq := c.begin(OpIdentify)
	rq.u32(CurrentVersion)
	r, err := c.roundTrip(&rq)
	if err != nil {
		return Identity{}, err
	}
	id, err := decIdentity(&r.dec)
	r.release()
	return id, err
}

// The three block commands have an async form too (client_async.go): the
// synchronous method is the same submission and the same wait.

// Read fetches the current content of lpa.
func (c *Client) Read(lpa uint64, at vclock.Time) ([]byte, vclock.Time, error) {
	p, err := c.submitLPA(OpRead, lpa, at)
	if err != nil {
		return nil, at, err
	}
	data, done, err := waitRead(p)
	if err != nil {
		return nil, at, err
	}
	return data, done, nil
}

// Write stores data at lpa.
func (c *Client) Write(lpa uint64, data []byte, at vclock.Time) (vclock.Time, error) {
	p, err := c.submitWrite(lpa, data, at)
	if err != nil {
		return at, err
	}
	return syncDone(p, at)
}

// Trim invalidates lpa.
func (c *Client) Trim(lpa uint64, at vclock.Time) (vclock.Time, error) {
	p, err := c.submitLPA(OpTrim, lpa, at)
	if err != nil {
		return at, err
	}
	return syncDone(p, at)
}

// syncDone waits for a completion that carries only its done time; a
// synchronous caller gets its issue time back on failure.
func syncDone(p *rawPending, at vclock.Time) (vclock.Time, error) {
	done, err := waitDone(p)
	if err != nil {
		return at, err
	}
	return done, nil
}

func (c *Client) addrQuery(op Op, addr uint64, cnt int, t1, t2, at vclock.Time) ([]timekits.PageVersions, vclock.Time, error) {
	rq := c.begin(op)
	rq.u64(addr)
	rq.u32(uint32(cnt))
	rq.bounds(op, t1, t2, at)
	r, err := c.roundTrip(&rq)
	if err != nil {
		return nil, at, err
	}
	done := r.time()
	n := int(r.u32())
	out := make([]timekits.PageVersions, 0, min(n, 4096)) // grow past this instead of trusting the peer's count
	for i := 0; i < n && r.err == nil; i++ {
		pv := timekits.PageVersions{LPA: r.u64()}
		pv.Versions = decVersions(&r.dec)
		out = append(out, pv)
	}
	return out, done, r.finish()
}

// AddrQuery returns, per LPA, the version current at time t.
func (c *Client) AddrQuery(addr uint64, cnt int, t, at vclock.Time) ([]timekits.PageVersions, vclock.Time, error) {
	return c.addrQuery(OpAddrQuery, addr, cnt, t, 0, at)
}

// AddrQueryRange returns versions written in [t1, t2].
func (c *Client) AddrQueryRange(addr uint64, cnt int, t1, t2, at vclock.Time) ([]timekits.PageVersions, vclock.Time, error) {
	return c.addrQuery(OpAddrQueryRange, addr, cnt, t1, t2, at)
}

// AddrQueryAll returns every retained version.
func (c *Client) AddrQueryAll(addr uint64, cnt int, at vclock.Time) ([]timekits.PageVersions, vclock.Time, error) {
	return c.addrQuery(OpAddrQueryAll, addr, cnt, 0, 0, at)
}

func (c *Client) timeQuery(op Op, t1, t2, at vclock.Time) ([]core.UpdateRecord, vclock.Time, error) {
	rq := c.begin(op)
	rq.bounds(op, t1, t2, at)
	r, err := c.roundTrip(&rq)
	if err != nil {
		return nil, at, err
	}
	done := r.time()
	recs := decRecords(&r.dec)
	return recs, done, r.finish()
}

// TimeQuery returns LPAs updated since t.
func (c *Client) TimeQuery(t, at vclock.Time) ([]core.UpdateRecord, vclock.Time, error) {
	return c.timeQuery(OpTimeQuery, t, 0, at)
}

// TimeQueryRange returns LPAs updated within [t1, t2].
func (c *Client) TimeQueryRange(t1, t2, at vclock.Time) ([]core.UpdateRecord, vclock.Time, error) {
	return c.timeQuery(OpTimeQueryRange, t1, t2, at)
}

// TimeQueryAll returns the whole retention window's update history.
func (c *Client) TimeQueryAll(at vclock.Time) ([]core.UpdateRecord, vclock.Time, error) {
	return c.timeQuery(OpTimeQueryAll, 0, 0, at)
}

// changed completes a rollback-shaped command: its response is the done
// time and the number of pages changed.
func (c *Client) changed(rq *reqBuf, at vclock.Time) (int, vclock.Time, error) {
	r, err := c.roundTrip(rq)
	if err != nil {
		return 0, at, err
	}
	done, n := r.time(), int(r.u32())
	return n, done, r.finish()
}

// RollBack reverts cnt LPAs from addr to their state at time t.
func (c *Client) RollBack(addr uint64, cnt int, t, at vclock.Time) (int, vclock.Time, error) {
	rq := c.begin(OpRollBack)
	rq.u64(addr)
	rq.u32(uint32(cnt))
	rq.time(t)
	rq.time(at)
	return c.changed(&rq, at)
}

// RollBackAll reverts every LPA with retrievable state to its version at
// time t — on a striped array, every shard travels to the same instant.
func (c *Client) RollBackAll(t, at vclock.Time) (int, vclock.Time, error) {
	rq := c.begin(OpRollBackAll)
	rq.time(t)
	rq.time(at)
	return c.changed(&rq, at)
}

// RollBackParallel reverts a set of LPAs with the given host threads.
func (c *Client) RollBackParallel(lpas []uint64, threads int, t, at vclock.Time) (int, vclock.Time, error) {
	rq := c.begin(OpRollBackParallel)
	rq.u32(uint32(len(lpas)))
	for _, lpa := range lpas {
		rq.u64(lpa)
	}
	rq.u32(uint32(threads))
	rq.time(t)
	rq.time(at)
	return c.changed(&rq, at)
}

// Stats fetches the device counters.
func (c *Client) Stats() (DeviceStats, error) {
	rq := c.begin(OpStats)
	r, err := c.roundTrip(&rq)
	if err != nil {
		return DeviceStats{}, err
	}
	st := DeviceStats{
		HostPageWrites: r.i64(),
		HostPageReads:  r.i64(),
		FlashPrograms:  r.i64(),
		FlashReads:     r.i64(),
		FlashErases:    r.i64(),
		DeltasCreated:  r.i64(),
		WindowDrops:    r.i64(),
	}
	return st, r.finish()
}

// snapshot completes a command whose response is one obs.Snapshot.
func (c *Client) snapshot(rq *reqBuf) (obs.Snapshot, error) {
	r, err := c.roundTrip(rq)
	if err != nil {
		return obs.Snapshot{}, err
	}
	s := decSnapshot(&r.dec)
	return s, r.finish()
}

// Metrics fetches the device's full observability snapshot: counters plus
// per-class virtual- and wall-time histograms.
func (c *Client) Metrics() (obs.Snapshot, error) {
	rq := c.begin(OpMetrics)
	return c.snapshot(&rq)
}

// Trace fetches up to max recent trace events, oldest first; max <= 0
// requests everything the device's rings hold.
func (c *Client) Trace(max int) ([]obs.Event, error) {
	rq := c.begin(OpTrace)
	rq.u32(uint32(max))
	r, err := c.roundTrip(&rq)
	if err != nil {
		return nil, err
	}
	evs := decEvents(&r.dec)
	return evs, r.finish()
}
