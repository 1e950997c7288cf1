package obs

import "sync/atomic"

// WireStats counts transport activity on one protocol connection: frames
// and bytes in each direction, plus how the output side batched its
// writes. Like the Registry, every field is an atomic and a nil receiver
// is a no-op, so the protocol hot path records unconditionally and the
// zero value is ready to use.
//
// These are host-side telemetry: they measure the transport
// implementation, not simulated-device behavior, and are deliberately not
// part of the almaproto counter payload.
type WireStats struct {
	framesIn  atomic.Int64
	bytesIn   atomic.Int64
	framesOut atomic.Int64
	bytesOut  atomic.Int64
	writes    atomic.Int64 // Write calls issued by the output path
	coalesced atomic.Int64 // Write calls that carried more than one frame
}

// RecordRead counts one inbound frame of n wire bytes (header included).
func (w *WireStats) RecordRead(n int) {
	if w == nil {
		return
	}
	w.framesIn.Add(1)
	w.bytesIn.Add(int64(n))
}

// RecordFlush counts one outbound Write call covering frames frames and n
// wire bytes. frames > 1 marks the write as coalesced.
func (w *WireStats) RecordFlush(frames, n int) {
	if w == nil {
		return
	}
	w.framesOut.Add(int64(frames))
	w.bytesOut.Add(int64(n))
	w.writes.Add(1)
	if frames > 1 {
		w.coalesced.Add(1)
	}
}

// WireCounters is a point-in-time copy of a WireStats.
type WireCounters struct {
	FramesIn  int64
	BytesIn   int64
	FramesOut int64
	BytesOut  int64
	Writes    int64
	Coalesced int64
}

// Snapshot copies the counters; safe concurrently with recording.
func (w *WireStats) Snapshot() WireCounters {
	if w == nil {
		return WireCounters{}
	}
	return WireCounters{
		FramesIn:  w.framesIn.Load(),
		BytesIn:   w.bytesIn.Load(),
		FramesOut: w.framesOut.Load(),
		BytesOut:  w.bytesOut.Load(),
		Writes:    w.writes.Load(),
		Coalesced: w.coalesced.Load(),
	}
}

// Add folds o into c field by field (aggregating per-connection stats
// into a server-wide view).
func (c *WireCounters) Add(o WireCounters) {
	c.FramesIn += o.FramesIn
	c.BytesIn += o.BytesIn
	c.FramesOut += o.FramesOut
	c.BytesOut += o.BytesOut
	c.Writes += o.Writes
	c.Coalesced += o.Coalesced
}
