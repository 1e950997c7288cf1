package almaproto

import (
	"encoding/binary"
	"fmt"

	"almanac/internal/obs"
	"almanac/internal/service"
	"almanac/internal/vclock"
)

// Tagged client transport: after the handshake (client.go's open) every
// submission carries a client-chosen request ID and completions arrive in
// whatever order the server finishes them. Synchronous methods are a
// submission followed by its wait, so concurrent callers on one connection
// pipeline; SubmitBatch/Wait hands a caller the pipelining directly.
//
// The waiter is the reader. There is no goroutine parked on the socket on
// the client's behalf: a connection has one reader token (Client.rtoken),
// a Wait whose completion has not arrived takes it and reads the socket
// itself, routes every frame it reads to the pending it belongs to, and
// puts the token back the moment its own completion is in. Waiters block
// on their own completion or the token, whichever comes first, so a
// completion some other waiter delivered is never stuck behind that
// waiter's own wait. A synchronous call therefore wakes no goroutine at
// this end: the caller writes its request (see sendQueue: a frame alone on
// its connection is flushed by its producer) and then blocks in the read
// for the answer. A consequence worth knowing: nothing drains the socket
// while no Wait is outstanding, so completions sit in the transport until
// someone asks for one, and a dead connection is noticed by the next
// submission or wait rather than in the background.
//
// The data path is pooled and coalesced end to end: request frames are
// built header-first in pooled buffers, handed to the connection's
// sendQueue — under load, the writer goroutine that drains every queued
// frame into a single Write per wakeup — and recycled once flushed;
// response frames are read into a second pool, decoded in place by the
// waits, and recycled there. Steady-state submission therefore allocates
// nothing on the transport.

// response is one completion: a decoder positioned past the status byte,
// or one whose sticky err is the typed failure (a RemoteError, or what
// killed the connection). The decoder aliases a pooled frame (fb), which
// finish returns; every decoder in this package copies what it hands to
// the application, so nothing outlives that.
type response struct {
	dec
	c  *Client
	fb *frameBuf
}

// completion decodes the status of a tagged response frame, past its
// request ID, releasing fb when the completion is a failure.
func completion(c *Client, fb *frameBuf) response {
	r := response{dec: dec{b: fb.b, pos: 8}, c: c, fb: fb}
	if r.err = r.status(); r.err != nil {
		r.release()
	}
	return r
}

// status reads one status byte and, unless it is StatusOK, the error
// message behind it.
func (d *dec) status() error {
	if status := d.u8(); status != StatusOK {
		return &RemoteError{Msg: string(d.bytes()), Code: status}
	}
	return d.err
}

// release recycles the response frame; finish does so at the end of a
// decode and reports whether the decoder ran off the end of the payload.
func (r *response) release() {
	if r.fb != nil {
		r.c.respPool.release(r.fb)
		r.fb = nil
	}
}

func (r *response) finish() error {
	r.release()
	return r.err
}

// rawPending is one in-flight submission. Pendings (and their completion
// channels) are recycled through Client.pfree: exactly one response is
// ever produced per lease — the reader removes the channel from the
// pending map before delivering, and failPending swaps the whole map — so
// once wait has it the pending is clean for reuse.
type rawPending struct {
	c  *Client
	ch chan response // cap 1: a delivery never blocks the reader
}

// wait blocks for the completion and recycles the pending. If the
// completion is not in yet and nobody is reading the connection, wait
// becomes the reader.
func (p *rawPending) wait() response {
	c := p.c
	var r response
	select {
	case r = <-p.ch:
	case <-c.rtoken:
		r = c.readFor(p)
		c.rtoken <- struct{}{} // never blocks: cap 1, and the token was ours
	}
	c.pmu.Lock()
	c.pfree = append(c.pfree, p)
	c.pmu.Unlock()
	return r
}

// leasePending takes a recycled pending or makes one. Called with pmu
// held.
func (c *Client) leasePending() *rawPending {
	if k := len(c.pfree); k > 0 {
		p := c.pfree[k-1]
		c.pfree[k-1] = nil
		c.pfree = c.pfree[:k-1]
		return p
	}
	return &rawPending{c: c, ch: make(chan response, 1)}
}

// readFor is the reader's role, played by the waiter on p while it holds
// the reader token: read completions and route each to its submitter by
// request ID until p's own is in. Every delivery is a send on a cap-1
// channel that nothing else sends to, so the reader never blocks on
// another waiter. On transport failure it fails every outstanding
// submission — p included — with the same typed error and shuts the
// writer down.
func (c *Client) readFor(p *rawPending) response {
	select {
	case r := <-p.ch: // delivered by an earlier reader, or failed
		return r
	default:
	}
	for {
		fb, err := readFrameInto(c.conn, &c.respPool, nil)
		if err != nil {
			err = fmt.Errorf("%w: %w", ErrConnClosed, err)
		} else if len(fb.b) < 9 { // u64 reqID + u8 status minimum
			err = fmt.Errorf("almaproto: tagged completion of %d bytes: %w", len(fb.b), ErrShortPayload)
			c.respPool.release(fb)
		}
		if err != nil {
			c.failPending(err)
			go c.w.stop()
			return <-p.ch // failPending put it there — or an earlier failure already had
		}
		reqID := binary.LittleEndian.Uint64(fb.b)
		c.pmu.Lock()
		ch := c.pend[reqID]
		delete(c.pend, reqID)
		c.pmu.Unlock()
		switch ch {
		case nil:
			c.respPool.release(fb) // completion for an abandoned submission
		case p.ch:
			return completion(c, fb)
		default:
			ch <- completion(c, fb)
		}
	}
}

func (c *Client) failPending(err error) {
	c.pmu.Lock()
	pend := c.pend
	c.pend = make(map[uint64]chan response)
	if c.readErr == nil {
		c.readErr = err
	}
	c.pmu.Unlock()
	for _, ch := range pend {
		ch <- response{dec: dec{err: err}}
	}
}

// send registers a pending completion for a built request, stamps its
// header, and hands it to the send queue, handshaking first if the
// connection has not opened yet. The frame is owned by the transport from
// here on: whoever flushes it releases it. The completion is read by
// whichever waiter holds the reader token, in any order.
func (c *Client) send(rq *reqBuf) (*rawPending, error) {
	fb := rq.fb
	fb.b = rq.b
	if _, _, err := c.open(); err != nil {
		c.reqPool.release(fb)
		return nil, err
	}
	binary.LittleEndian.PutUint32(fb.b, uint32(len(fb.b)-4))
	c.pmu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.pmu.Unlock()
		c.reqPool.release(fb)
		return nil, err
	}
	reqID := c.nextID
	c.nextID++
	p := c.leasePending()
	alone := len(c.pend) == 0 // every earlier submission's completion has been read
	c.pend[reqID] = p.ch
	c.pmu.Unlock()
	binary.LittleEndian.PutUint64(fb.b[4:], reqID)

	if !c.w.enqueue(fb, alone) {
		// Connection closed under us. failPending may already have taken
		// our channel (and will send to it); only recycle the pending if
		// the registration is still ours to remove.
		c.reqPool.release(fb)
		c.pmu.Lock()
		if _, ok := c.pend[reqID]; ok {
			delete(c.pend, reqID)
			c.pfree = append(c.pfree, p)
		}
		err := c.readErr
		c.pmu.Unlock()
		if err == nil {
			err = ErrConnClosed
		}
		return nil, err
	}
	return p, nil
}

// ---- typed async submissions ----------------------------------------------

// submitLPA submits a command whose payload is an LPA and the issue time:
// a read or a trim.
func (c *Client) submitLPA(op Op, lpa uint64, at vclock.Time) (*rawPending, error) {
	rq := c.begin(op)
	rq.u64(lpa)
	rq.time(at)
	return c.send(&rq)
}

// submitWrite submits a write; data is copied into the request before it
// returns.
func (c *Client) submitWrite(lpa uint64, data []byte, at vclock.Time) (*rawPending, error) {
	rq := c.begin(OpWrite)
	rq.u64(lpa)
	rq.time(at)
	rq.bytes(data)
	return c.send(&rq)
}

// waitRead collects a read: its done time and the data, which is the
// caller's (copied out of the response frame).
func waitRead(p *rawPending) ([]byte, vclock.Time, error) {
	r := p.wait()
	if r.err != nil {
		return nil, 0, r.err
	}
	done, data := r.time(), r.bytes()
	return data, done, r.finish()
}

// waitDone collects a completion that carries only its done time: a
// write or a trim.
func waitDone(p *rawPending) (vclock.Time, error) {
	r := p.wait()
	if r.err != nil {
		return 0, r.err
	}
	done := r.time()
	return done, r.finish()
}

// PendingBatch is an in-flight multi-op batch submission.
type PendingBatch struct {
	p     *rawPending
	kinds []service.OpKind
}

// SubmitBatch pipelines a multi-op batch against an attached volume.
// Results are positional and per-op: one failing op surfaces as that
// slot's typed error without failing the batch or the ops around it.
func (c *Client) SubmitBatch(volID uint32, ops []service.BatchOp) (*PendingBatch, error) {
	rq := c.begin(OpBatch)
	rq.u32(volID)
	rq.u32(uint32(len(ops)))
	kinds := make([]service.OpKind, len(ops))
	for i, op := range ops {
		kinds[i] = op.Kind
		rq.u8(uint8(op.Kind))
		rq.u64(op.LPA)
		rq.time(op.At)
		if op.Kind == service.KindWrite {
			rq.bytes(op.Data)
		}
	}
	p, err := c.send(&rq)
	if err != nil {
		return nil, err
	}
	return &PendingBatch{p: p, kinds: kinds}, nil
}

// Wait blocks until every op of the batch has completed. Read data is
// the caller's (copied out of the pooled response frame).
func (b *PendingBatch) Wait() ([]service.BatchResult, error) {
	r := b.p.wait()
	if r.err != nil {
		return nil, r.err
	}
	n := int(r.u32())
	if n != len(b.kinds) {
		r.release()
		return nil, fmt.Errorf("almaproto: batch returned %d results for %d ops", n, len(b.kinds))
	}
	out := make([]service.BatchResult, n)
	for i := 0; i < n && r.err == nil; i++ {
		if out[i].Err = r.status(); out[i].Err != nil {
			continue
		}
		out[i].Done = r.time()
		if b.kinds[i] == service.KindRead {
			out[i].Data = r.bytes()
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// Batch submits a batch and waits for it.
func (c *Client) Batch(volID uint32, ops []service.BatchOp) ([]service.BatchResult, error) {
	p, err := c.SubmitBatch(volID, ops)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// ---- volume management -----------------------------------------------------

// VolumeInfo is the wire description of one volume. WindowStart is only
// populated by VolAttach (it depends on the attach time).
type VolumeInfo struct {
	ID          uint32
	Name        string
	Pages       uint64
	Retention   vclock.Duration
	CreatedAt   vclock.Time
	WindowStart vclock.Time
}

// volRequest starts a volume-lifecycle request, which opens with the
// volume's name and the tenant key.
func (c *Client) volRequest(op Op, name, key string) reqBuf {
	rq := c.begin(op)
	rq.bytes([]byte(name))
	rq.bytes([]byte(key))
	return rq
}

// VolCreate creates a named volume of pages logical pages protected by
// key, with a per-volume retention promise (0 accepts the device
// default). at stamps the creation in virtual time.
func (c *Client) VolCreate(name, key string, pages uint64, retention vclock.Duration, at vclock.Time) (VolumeInfo, error) {
	rq := c.volRequest(OpVolCreate, name, key)
	rq.u64(pages)
	rq.i64(int64(retention))
	rq.time(at)
	r, err := c.roundTrip(&rq)
	if err != nil {
		return VolumeInfo{}, err
	}
	in := VolumeInfo{ID: r.u32(), Name: name, Pages: pages, Retention: retention, CreatedAt: at}
	return in, r.finish()
}

// VolDelete authenticates and deletes a volume; the returned time is the
// virtual completion of the extent scrub.
func (c *Client) VolDelete(name, key string, at vclock.Time) (vclock.Time, error) {
	rq := c.volRequest(OpVolDelete, name, key)
	rq.time(at)
	p, err := c.send(&rq)
	if err != nil {
		return at, err
	}
	return syncDone(p, at)
}

// VolList describes every volume, in name order.
func (c *Client) VolList() ([]VolumeInfo, error) {
	rq := c.begin(OpVolList)
	r, err := c.roundTrip(&rq)
	if err != nil {
		return nil, err
	}
	n := int(r.u32())
	if r.err != nil || n > maxFrame/16 {
		r.release()
		return nil, ErrShortPayload
	}
	out := make([]VolumeInfo, 0, min(n, 4096))
	for i := 0; i < n && r.err == nil; i++ {
		in := VolumeInfo{ID: r.u32(), Name: string(r.bytes()), Pages: r.u64()}
		in.Retention = vclock.Duration(r.i64())
		in.CreatedAt = r.time()
		out = append(out, in)
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// VolAttach authenticates against a named volume, binding its id to this
// connection for Batch/VolRollBack/VolStats. at is the attach time used
// to report the volume's current visible window start.
func (c *Client) VolAttach(name, key string, at vclock.Time) (VolumeInfo, error) {
	rq := c.volRequest(OpVolAttach, name, key)
	rq.time(at)
	r, err := c.roundTrip(&rq)
	if err != nil {
		return VolumeInfo{}, err
	}
	in := VolumeInfo{ID: r.u32(), Name: name, Pages: r.u64()}
	in.Retention = vclock.Duration(r.i64())
	in.CreatedAt = r.time()
	in.WindowStart = r.time()
	return in, r.finish()
}

// VolStats fetches the per-volume observability snapshot of an attached
// volume.
func (c *Client) VolStats(volID uint32) (obs.Snapshot, error) {
	rq := c.begin(OpVolStats)
	rq.u32(volID)
	return c.snapshot(&rq)
}

// VolRollBack reverts an attached volume to its state at time t. Other
// volumes are untouched.
func (c *Client) VolRollBack(volID uint32, t, at vclock.Time) (int, vclock.Time, error) {
	rq := c.begin(OpVolRollBack)
	rq.u32(volID)
	rq.time(t)
	rq.time(at)
	return c.changed(&rq, at)
}
