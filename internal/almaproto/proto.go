// Package almaproto is the host⇄device command protocol of Project
// Almanac. The paper's implementation "defines new NVMe commands to wrap
// the TimeKits API" and runs TimeKits atop the host NVMe driver (§4); this
// package is that boundary for the simulated device: a framed, versioned
// binary protocol carrying block I/O, the Table-1 state queries, and
// rollback, served over any net.Conn (the almanacd command serves TCP).
//
// Because the device lives in virtual time, every command carries the
// virtual issue time and every completion returns the virtual done time —
// the protocol transports the simulation clock alongside the data, exactly
// as the harness's in-process calls do.
//
// Wire format (little endian):
//
//	frame  := u32 bodyLen, body
//
// # Handshake
//
// A connection opens with one untagged exchange: the client's first frame
// is an Identify announcing the highest version it speaks, and the server
// answers with the device's identity, the agreed version — min(client
// max, server max) — and the per-connection in-flight window:
//
//	handshake request  := u8 OpIdentify, u32 announced version
//	handshake response := u8 status (0 = OK), identity… | error string
//
// This build speaks v4 only. Pre-v4 peers are refused at the handshake: a
// first frame that is anything but an Identify announcing v4 or later —
// a bare Identify, an older announcement, another opcode — gets one
// untagged error frame naming v4, and the server closes the connection. A
// client that is offered a version below v4 refuses it too. Neither end
// ever guesses at a framing the other may not speak.
//
// # Tagged transport
//
// Every frame after the handshake is tagged:
//
//	tagged request body  := u64 reqID, u8 opcode, payload…
//	tagged response body := u64 reqID, u8 status, payload… | error string
//
// Request IDs are chosen by the client and only echoed by the server, so
// a client may pipeline many submissions and match completions as they
// arrive — completions are unordered, exactly like an NVMe completion
// queue. The server bounds concurrency with the in-flight window
// advertised at the handshake: once the window is full it stops reading
// further frames, which backpressures the submitter through the
// transport.
//
// # Protocol revisions
//
// The revision rule: opcodes are append-only — a new command takes the
// next free opcode value, and existing opcodes never change value or
// payload shape. Servers may append new fields to the *end* of an
// existing response payload only when every client ignores trailing
// response bytes for that opcode (the Identify response grew this way).
// Request payloads are closed: servers reject trailing request bytes
// before executing, so extending a request requires a new opcode. Status codes are append-only
// as well.
//
// The revisions so far, of which only the last is still served:
//
//	v1: OpIdentify … OpStats (single device), lockstep frames
//	v2: + OpRollBackAll (array revision)
//	v3: + version negotiation, OpMetrics, OpTrace (observability)
//	v4: + tagged pipelined transport, volume opcodes, OpBatch (service)
package almaproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"almanac/internal/core"
	"almanac/internal/fault"
	"almanac/internal/obs"
	"almanac/internal/service"
	"almanac/internal/vclock"
)

// Op identifies a command.
type Op uint8

const (
	OpIdentify Op = iota + 1
	OpRead
	OpWrite
	OpTrim
	OpAddrQuery
	OpAddrQueryRange
	OpAddrQueryAll
	OpTimeQuery
	OpTimeQueryRange
	OpTimeQueryAll
	OpRollBack
	OpRollBackParallel
	OpStats
	// OpRollBackAll was added with the array protocol revision (v2); per
	// the append-only rule it sits after OpStats so every pre-existing
	// opcode keeps its value.
	OpRollBackAll
	// OpMetrics and OpTrace are the v3 observability surface.
	OpMetrics
	OpTrace
	// The v4 service surface (internal/service): named volumes and
	// multi-op batches.
	OpVolCreate
	OpVolDelete
	OpVolList
	OpVolAttach
	OpVolStats
	OpVolRollBack
	OpBatch
)

// Protocol versions (see the package documentation for the revision
// history). VersionService is the lowest version a handshake may agree;
// CurrentVersion is the highest this build speaks.
const (
	VersionService = 4 // tagged pipelined transport, volumes, OpBatch
	CurrentVersion = VersionService
)

// String names the opcode as the dispatch table does.
func (o Op) String() string {
	if int(o) < len(ops) && ops[o].name != "" {
		return ops[o].name
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// maxFrame bounds a frame body; large enough for a full-device TimeQuery
// result on simulated geometries, small enough to reject garbage framing.
const maxFrame = 64 << 20

// Errors.
var (
	ErrFrameTooLarge = errors.New("almaproto: frame exceeds limit")
	ErrShortPayload  = errors.New("almaproto: truncated payload")
	// ErrConnClosed marks a transport failure: the connection died, at
	// the handshake or with submissions in flight. Every outstanding Wait and every later
	// Submit on the connection reports it, so pipelined callers get a
	// typed error instead of a hang when the server goes away.
	ErrConnClosed = errors.New("almaproto: connection closed")
)

// Response status codes. Like opcodes, status codes are append-only: 0
// and 1 are the original OK/error pair; later codes refine the error
// class so clients can match device faults with errors.Is instead of
// string-sniffing. Servers may send any code; older clients treat every
// non-zero status as a generic RemoteError, which stays correct.
const (
	StatusOK            = 0
	StatusError         = 1 // generic device-side failure
	StatusUncorrectable = 2 // fault.ErrUncorrectable: data lost to ECC
	StatusPowerCut      = 3 // fault.ErrPowerCut: device dead mid-plan
	StatusAuth          = 4 // service.ErrAuth: key rejected / volume not attached
	StatusNoVolume      = 5 // service.ErrNoVolume: unknown or deleted volume
	StatusBeforeWindow  = 6 // service.ErrBeforeWindow: travel precedes the volume window
)

// typedStatus pairs each refined status code with the sentinel it carries
// across the wire, in both directions.
var typedStatus = [...]struct {
	code uint8
	err  error
}{
	{StatusUncorrectable, fault.ErrUncorrectable},
	{StatusPowerCut, fault.ErrPowerCut},
	{StatusAuth, service.ErrAuth},
	{StatusNoVolume, service.ErrNoVolume},
	{StatusBeforeWindow, service.ErrBeforeWindow},
}

// statusOf maps a device error to its wire status code.
func statusOf(err error) uint8 {
	for _, ts := range typedStatus {
		if errors.Is(err, ts.err) {
			return ts.code
		}
	}
	return StatusError
}

// RemoteError is a device-side failure relayed to the client. Code is the
// wire status; Unwrap maps the typed statuses back to their sentinels, so
// errors.Is(err, fault.ErrUncorrectable) works across the protocol
// boundary exactly as it does in-process.
type RemoteError struct {
	Msg  string
	Code uint8
}

func (e *RemoteError) Error() string { return "almaproto: device: " + e.Msg }

func (e *RemoteError) Unwrap() error {
	for _, ts := range typedStatus {
		if e.Code == ts.code {
			return ts.err
		}
	}
	return nil
}

// writeFrame sends one length-prefixed body.
func writeFrame(w io.Writer, body []byte) error {
	if len(body) > maxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame receives one length-prefixed body.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// enc is an append-only payload builder.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)         { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)       { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)       { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)        { e.u64(uint64(v)) }
func (e *enc) time(t vclock.Time) { e.i64(int64(t)) }
func (e *enc) bytes(p []byte) {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// dec is a bounds-checked payload reader.
type dec struct {
	b   []byte
	pos int
	err error
}

func (d *dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.pos+n > len(d.b) {
		d.err = ErrShortPayload
		return false
	}
	return true
}

func (d *dec) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.pos]
	d.pos++
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.pos:])
	d.pos += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.pos:])
	d.pos += 8
	return v
}

func (d *dec) i64() int64        { return int64(d.u64()) }
func (d *dec) time() vclock.Time { return vclock.Time(d.i64()) }
func (d *dec) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || !d.need(n) {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b[d.pos:d.pos+n])
	d.pos += n
	return out
}

// end closes the decode of a request payload (the opcode at b[0]): it
// reports the decode error, or a refusal naming any bytes left past the
// last field. A server handler calls it before it executes anything.
func (d *dec) end() error {
	if d.err == nil && d.pos != len(d.b) {
		return fmt.Errorf("almaproto: %v: %d trailing payload bytes", Op(d.b[0]), len(d.b)-d.pos)
	}
	return d.err
}

// bytesAlias reads a length-prefixed byte field without copying: the
// result aliases the decoder's backing buffer. Server dispatch uses it
// for request payloads — the backing frame outlives the dispatch (pooled
// frames are released only after the command consumed the payload), so
// the alias is safe and the per-payload copy disappears.
func (d *dec) bytesAlias() []byte {
	n := int(d.u32())
	if d.err != nil || !d.need(n) {
		return nil
	}
	out := d.b[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return out
}

// timeBounds is how many time bounds a query opcode carries before its
// issue time: one for the point forms, two for the range forms, none for
// the All forms.
func timeBounds(op Op) int {
	switch op {
	case OpAddrQuery, OpTimeQuery:
		return 1
	case OpAddrQueryRange, OpTimeQueryRange:
		return 2
	}
	return 0
}

// bounds appends a query's time bounds and then its issue time.
func (e *enc) bounds(op Op, t1, t2, at vclock.Time) {
	n := timeBounds(op)
	if n >= 1 {
		e.time(t1)
	}
	if n == 2 {
		e.time(t2)
	}
	e.time(at)
}

// bounds reads what enc.bounds wrote; absent bounds are zero.
func (d *dec) bounds(op Op) (t1, t2, at vclock.Time) {
	n := timeBounds(op)
	if n >= 1 {
		t1 = d.time()
	}
	if n == 2 {
		t2 = d.time()
	}
	return t1, t2, d.time()
}

// Version mirrors core.Version on the wire.
func encVersions(e *enc, vers []core.Version) {
	e.u32(uint32(len(vers)))
	for _, v := range vers {
		e.time(v.TS)
		if v.Live {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.bytes(v.Data)
	}
}

func decVersions(d *dec) []core.Version {
	n := int(d.u32())
	if d.err != nil || n > maxFrame/16 {
		return nil
	}
	out := make([]core.Version, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		v := core.Version{TS: d.time(), Live: d.u8() == 1, Data: d.bytes()}
		if d.err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

func encRecords(e *enc, recs []core.UpdateRecord) {
	e.u32(uint32(len(recs)))
	for _, r := range recs {
		e.u64(r.LPA)
		e.u32(uint32(len(r.Times)))
		for _, t := range r.Times {
			e.time(t)
		}
	}
}

func decRecords(d *dec) []core.UpdateRecord {
	n := int(d.u32())
	if d.err != nil || n > maxFrame/8 {
		return nil
	}
	out := make([]core.UpdateRecord, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		r := core.UpdateRecord{LPA: d.u64()}
		m := int(d.u32())
		if d.err != nil || m > maxFrame/8 {
			return nil
		}
		for j := 0; j < m; j++ {
			r.Times = append(r.Times, d.time())
		}
		out = append(out, r)
	}
	return out
}

// Identity describes the device to the host. Shards advertises the
// backing topology (1 for a single device, N for a striped array); Channels is
// the total flash channel count across all shards — the device-internal
// parallelism TimeKits callers can exploit. Version is the protocol
// version the connection's handshake agreed — v4, the only one served —
// and Window the server's per-connection in-flight window for the tagged
// transport; both are fixed for the life of the connection.
type Identity struct {
	PageSize     int
	LogicalPages int
	Channels     int
	Shards       int
	WindowStart  vclock.Time
	Version      int
	Window       int
}

// DeviceStats is the counter snapshot OpStats returns. It predates the
// obs.Counters collapse and survives as the OpStats wire adapter: the
// seven fields below, as i64 in this order, are the frozen v1 payload
// (the server projects them out of the canonical counters; OpMetrics
// carries the full set). The retention window's start is part of
// Identify, since it is a point in virtual time rather than a counter.
type DeviceStats struct {
	HostPageWrites int64
	HostPageReads  int64
	FlashPrograms  int64
	FlashReads     int64
	FlashErases    int64
	DeltasCreated  int64
	WindowDrops    int64
}

// counterFields lists the simulated-device counter surface in its v3
// payload order, obs.Counters declaration order: 20 i64 values, encoded
// and decoded through this one list. Adding a simulated-device counter to
// obs.Counters requires a protocol revision. Host-side telemetry in
// obs.Counters (the retired RefCache* fields, which always read 0) is
// deliberately not part of the payload and must stay out of this list.
func counterFields(c *obs.Counters) [20]*int64 {
	return [...]*int64{
		&c.HostPageWrites, &c.HostPageReads, &c.TrimOps,
		&c.FlashReads, &c.FlashPrograms, &c.FlashErases,
		&c.GCRuns, &c.GCReads, &c.GCWrites, &c.GCErases, &c.GCDeltaOps,
		&c.ReadFailures,
		&c.Invalidations, &c.DeltasCreated, &c.DeltaPagesWritten,
		&c.ExpiredReclaimed, &c.WindowDrops, &c.IdleCompressions,
		&c.EstimatorChecks, &c.EstimatorTrips,
	}
}

func encCounters(e *enc, c obs.Counters) {
	for _, f := range counterFields(&c) {
		e.i64(*f)
	}
}

func decCounters(d *dec) (c obs.Counters) {
	for _, f := range counterFields(&c) {
		*f = d.i64()
	}
	return c
}

func encHist(e *enc, h obs.HistSnapshot) {
	e.i64(h.Count)
	e.i64(h.SumNS)
	e.i64(h.MaxNS)
	e.u32(uint32(len(h.Buckets)))
	for _, n := range h.Buckets {
		e.i64(n)
	}
}

func decHist(d *dec) obs.HistSnapshot {
	var h obs.HistSnapshot
	h.Count, h.SumNS, h.MaxNS = d.i64(), d.i64(), d.i64()
	n := int(d.u32())
	if d.err != nil || n > 1024 {
		d.err = ErrShortPayload
		return obs.HistSnapshot{}
	}
	// A peer built with a different bucket count still parses; buckets
	// beyond ours fold into the unbounded last bucket.
	for i := 0; i < n; i++ {
		v := d.i64()
		j := i
		if j >= len(h.Buckets) {
			j = len(h.Buckets) - 1
			h.Buckets[j] += v
			continue
		}
		h.Buckets[j] = v
	}
	return h
}

// encSnapshot writes an obs.Snapshot; per-class entries are emitted in
// sorted name order, making the encoding deterministic.
func encSnapshot(e *enc, s obs.Snapshot) {
	e.u32(uint32(s.Shards))
	e.i64(s.WindowStartNS)
	e.u32(uint32(s.Segments))
	encCounters(e, s.C)
	names := obs.SortedOpNames(s.Ops)
	e.u32(uint32(len(names)))
	for _, name := range names {
		st := s.Ops[name]
		e.bytes([]byte(name))
		e.i64(st.Count)
		e.i64(st.Errors)
		encHist(e, st.Virt)
		encHist(e, st.Wall)
	}
}

func decSnapshot(d *dec) obs.Snapshot {
	s := obs.Snapshot{
		Shards:        int(d.u32()),
		WindowStartNS: d.i64(),
		Segments:      int(d.u32()),
		C:             decCounters(d),
	}
	n := int(d.u32())
	if d.err != nil || n > 1024 {
		d.err = ErrShortPayload
		return obs.Snapshot{}
	}
	if n > 0 {
		s.Ops = make(map[string]obs.OpStats, n)
	}
	for i := 0; i < n; i++ {
		name := string(d.bytes())
		st := obs.OpStats{Count: d.i64(), Errors: d.i64()}
		st.Virt = decHist(d)
		st.Wall = decHist(d)
		if d.err != nil {
			return obs.Snapshot{}
		}
		s.Ops[name] = st
	}
	return s
}

func encEvents(e *enc, evs []obs.Event) {
	e.u32(uint32(len(evs)))
	for _, ev := range evs {
		e.u8(uint8(ev.Class))
		e.u32(uint32(ev.Shard))
		if ev.OK {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.u64(ev.LPA)
		e.i64(ev.IssueNS)
		e.i64(ev.DoneNS)
	}
}

func decEvents(d *dec) []obs.Event {
	n := int(d.u32())
	if d.err != nil || n > maxFrame/16 {
		return nil
	}
	out := make([]obs.Event, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		ev := obs.Event{
			Class: obs.Class(d.u8()),
			Shard: int(d.u32()),
			OK:    d.u8() == 1,
			LPA:   d.u64(),
		}
		ev.IssueNS = d.i64()
		ev.DoneNS = d.i64()
		if d.err != nil {
			return nil
		}
		out = append(out, ev)
	}
	return out
}
