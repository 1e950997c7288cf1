package almaproto

import (
	"errors"
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
// A Client is safe for concurrent use. Against a pre-v4 server commands
// serialise on the wire; once Identify negotiates v4 the connection
// switches to the tagged transport and concurrent commands pipeline —
// each call still blocks, but it no longer queues behind the others, and
// the async Submit*/Wait surface (client_async.go) exposes the
// pipelining directly.
//
// Every command, synchronous or not, is built once and decoded once: a
// synchronous method is its submission followed by its wait. The two
// transports differ only below that (see send).
type Client struct {
	mu         sync.Mutex // guards the three fields below and serialises lockstep round trips
	conn       io.ReadWriteCloser
	version    uint32 // negotiated protocol version; 0 until Identify runs
	window     int    // server-advertised in-flight window (v4)
	maxVersion uint32 // negotiation cap; 0 means CurrentVersion (tests lower it)

	// Tagged (v4) transport state; see client_async.go. rtoken (cap 1,
	// created with the transport) holds the reader token: whoever takes it
	// is the one goroutine reading conn.
	pmu     sync.Mutex
	tagged  bool
	nextID  uint64
	pend    map[uint64]chan response
	pfree   []*rawPending // recycled pendings (with their channels)
	readErr error
	rtoken  chan struct{}

	// Frame pools: request frames cycle submit → flush → release; response
	// frames cycle reading waiter → typed wait → release. w is the tagged
	// transport's send queue.
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

// NewClient wraps an existing connection (tests use net.Pipe).
func NewClient(conn io.ReadWriteCloser) *Client { return &Client{conn: conn} }

// Close shuts the connection. On a tagged connection it also stops the
// writer goroutine and waits for it, so every in-flight Wait observes a
// typed ErrConnClosed failure (from whichever waiter is reading, or next
// reads, the closed connection) rather than hanging — closing
// mid-coalesced-flush is safe: the blocked Write fails, the writer fails
// all pendings, and exits.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.stopWriter()
	return err
}

// request starts a lockstep request body: the opcode, then whatever the
// caller appends.
func request(op Op) *enc {
	e := &enc{}
	e.u8(uint8(op))
	return e
}

// reqBuf is one request under construction: an encoder positioned past
// the opcode. On the tagged transport it builds in place in a pooled
// frame (fb), behind 12 bytes of header room — u32 frame length and u64
// request ID, both stamped by submitFrame; on the lockstep transport it
// is a plain body and fb is nil. The encoder may grow past the frame's
// capacity, so the frame goes back to the client through send, never by
// touching fb.b.
type reqBuf struct {
	enc
	fb *frameBuf
}

// begin starts a request for the connection's current transport.
func (c *Client) begin(op Op) reqBuf {
	if !c.isTagged() {
		return reqBuf{enc: *request(op)}
	}
	fb := c.reqPool.acquire(12)
	rq := reqBuf{enc: enc{b: fb.b[:12]}, fb: fb}
	rq.u8(uint8(op))
	return rq
}

// send issues a built request and returns its pending completion. On the
// tagged transport the frame goes to the send queue and the completion is
// read by whichever waiter holds the reader token, in any order. On the lockstep transport the
// round trip happens here, one at a time under c.mu, and the pending
// returned has already completed.
func (c *Client) send(rq *reqBuf) (*rawPending, error) {
	if rq.fb != nil {
		return c.submitFrame(rq.fb, rq.b)
	}
	c.mu.Lock()
	err := writeFrame(c.conn, rq.b)
	var body []byte
	if err == nil {
		body, err = readFrame(c.conn)
	}
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	c.pmu.Lock()
	p := c.leasePending()
	c.pmu.Unlock()
	p.ch <- completion(c, body, 0, nil)
	return p, nil
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

// Identify fetches device geometry and the retention window start, and
// negotiates the protocol version: the client announces CurrentVersion,
// the server replies with the agreed one. Servers from before the
// negotiation revision reject the announcement as trailing request bytes;
// Identify then falls back to the legacy bare request and records the
// pre-negotiation wire level.
//
// When the agreed version is ≥ v4 the connection switches to the tagged
// transport the moment Identify returns. Run the first Identify to
// completion before issuing commands from other goroutines: a command
// racing the negotiation could hit the wire in the old framing after the
// server has already switched. The negotiation is final: a later Identify
// on the tagged connection reports the same version and window.
func (c *Client) Identify() (Identity, error) {
	rq := c.begin(OpIdentify)
	rq.u32(c.announceMax())
	r, err := c.roundTrip(&rq)
	legacy := false
	if err != nil {
		var re *RemoteError
		if !errors.As(err, &re) {
			return Identity{}, err
		}
		legacy = true
		rq = c.begin(OpIdentify)
		if r, err = c.roundTrip(&rq); err != nil {
			return Identity{}, err
		}
	}
	id := Identity{
		PageSize:     int(r.u32()),
		LogicalPages: int(r.u64()),
		Channels:     int(r.u32()),
		Shards:       int(r.u32()),
		WindowStart:  r.time(),
		Version:      VersionArray,
	}
	if !legacy && r.pos < len(r.b) {
		id.Version = int(r.u32())
	}
	if !legacy && r.pos < len(r.b) {
		id.Window = int(r.u32())
	}
	if err := r.finish(); err != nil {
		return Identity{}, err
	}
	c.mu.Lock()
	c.version = uint32(id.Version)
	c.window = id.Window
	c.mu.Unlock()
	if id.Version >= VersionService {
		c.enableTagged()
	}
	return id, nil
}

// announceMax returns the highest version this client announces.
func (c *Client) announceMax() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxVersion != 0 {
		return c.maxVersion
	}
	return CurrentVersion
}

// negotiated returns the connection's protocol version, running Identify
// first if no negotiation has happened yet.
func (c *Client) negotiated() (uint32, error) {
	c.mu.Lock()
	v := c.version
	c.mu.Unlock()
	if v != 0 {
		return v, nil
	}
	id, err := c.Identify()
	if err != nil {
		return 0, err
	}
	return uint32(id.Version), nil
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

// requireVersion negotiates if needed and checks the agreed version
// covers the requested surface.
func (c *Client) requireVersion(min uint32, op Op) error {
	v, err := c.negotiated()
	if err != nil {
		return err
	}
	if v < min {
		return fmt.Errorf("almaproto: %v requires protocol v%d, server negotiated v%d", op, min, v)
	}
	return nil
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
// per-class virtual- and wall-time histograms (protocol ≥ v3).
func (c *Client) Metrics() (obs.Snapshot, error) {
	if err := c.requireVersion(VersionObs, OpMetrics); err != nil {
		return obs.Snapshot{}, err
	}
	rq := c.begin(OpMetrics)
	return c.snapshot(&rq)
}

// Trace fetches up to max recent trace events, oldest first; max <= 0
// requests everything the device's rings hold (protocol ≥ v3).
func (c *Client) Trace(max int) ([]obs.Event, error) {
	if err := c.requireVersion(VersionObs, OpTrace); err != nil {
		return nil, err
	}
	rq := c.begin(OpTrace)
	rq.u32(uint32(max))
	r, err := c.roundTrip(&rq)
	if err != nil {
		return nil, err
	}
	evs := decEvents(&r.dec)
	return evs, r.finish()
}
