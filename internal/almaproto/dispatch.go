package almaproto

import (
	"fmt"

	"almanac/internal/core"
	"almanac/internal/service"
	"almanac/internal/timekits"
	"almanac/internal/vclock"
)

// opSpec is one row of the dispatch table: the opcode's name and its
// handler. A handler decodes its whole payload from d and refuses a bad
// one (dec.end) before it touches the array or the service; then it
// executes and appends the response payload to e (already holding the OK
// status). Everything around that — unknown opcodes, turning an error
// into a status frame — is dispatch's.
type opSpec struct {
	name string
	run  func(s *Server, tc *taggedConn, d *dec, e *enc) error
}

// ops is indexed by opcode. Per the revision rule it only ever grows at
// the end. OpBatch has no handler: the serve loop hands every OpBatch
// frame to taggedConn.serveBatch.
var ops = [...]opSpec{
	OpIdentify:         {"Identify", (*Server).identify},
	OpRead:             {"Read", (*Server).read},
	OpWrite:            {"Write", (*Server).write},
	OpTrim:             {"Trim", (*Server).trim},
	OpAddrQuery:        {"AddrQuery", (*Server).addrQuery},
	OpAddrQueryRange:   {"AddrQueryRange", (*Server).addrQuery},
	OpAddrQueryAll:     {"AddrQueryAll", (*Server).addrQuery},
	OpTimeQuery:        {"TimeQuery", (*Server).timeQuery},
	OpTimeQueryRange:   {"TimeQueryRange", (*Server).timeQuery},
	OpTimeQueryAll:     {"TimeQueryAll", (*Server).timeQuery},
	OpRollBack:         {"RollBack", (*Server).rollBack},
	OpRollBackParallel: {"RollBackParallel", (*Server).rollBackParallel},
	OpStats:            {"Stats", (*Server).stats},
	OpRollBackAll:      {"RollBackAll", (*Server).rollBackAll},
	OpMetrics:          {"Metrics", (*Server).metrics},
	OpTrace:            {"Trace", (*Server).trace},
	OpVolCreate:        {"VolCreate", (*Server).volCreate},
	OpVolDelete:        {"VolDelete", (*Server).volDelete},
	OpVolList:          {"VolList", (*Server).volList},
	OpVolAttach:        {"VolAttach", (*Server).volAttach},
	OpVolStats:         {"VolStats", (*Server).volStats},
	OpVolRollBack:      {"VolRollBack", (*Server).volRollBack},
	OpBatch:            {"Batch", nil},
}

// dispatch executes one command body and appends its response body —
// status, then payload or error message — to e.
func (s *Server) dispatch(tc *taggedConn, body []byte, e *enc) {
	start := len(e.b)
	e.u8(StatusOK)
	if err := s.execute(tc, body, e); err != nil {
		e.b = e.b[:start]
		e.fail(err)
	}
}

func (s *Server) execute(tc *taggedConn, body []byte, e *enc) error {
	if len(body) == 0 {
		return ErrShortPayload
	}
	op := Op(body[0])
	if int(op) >= len(ops) || ops[op].run == nil {
		return fmt.Errorf("almaproto: unknown opcode %d (protocol v%d)", body[0], CurrentVersion)
	}
	if s.hold != nil {
		s.hold(op, body)
	}
	return ops[op].run(s, tc, &dec{b: body, pos: 1}, e)
}

// fail appends a failed completion: the error's status code and message.
func (e *enc) fail(err error) {
	e.u8(statusOf(err))
	e.bytes([]byte(err.Error()))
}

// done and count append the two completion shapes most commands share,
// taking a command's results directly: e.done(arr.Trim(lpa, at)).
func (e *enc) done(t vclock.Time, err error) error {
	if err == nil {
		e.time(t)
	}
	return err
}

func (e *enc) count(res timekits.Result[int], err error) error {
	if err == nil {
		e.time(res.Done)
		e.u32(uint32(res.Value))
	}
	return err
}

// handshake answers a connection's first frame, which must be an Identify
// announcing v4 or later and nothing else. The agreed version is
// min(announced, CurrentVersion): v4, the one transport this server
// speaks. Anything else — a bare Identify, an older announcement, another
// opcode, an empty body — is refused with an untagged error frame naming
// v4; ok reports which, and the caller hangs up on a refusal.
func (s *Server) handshake(body []byte) (resp []byte, ok bool) {
	e := &enc{}
	d := dec{b: body, pos: 1}
	if len(body) > 0 && Op(body[0]) == OpIdentify && d.u32() >= VersionService && d.end() == nil {
		e.u8(StatusOK)
		s.identity(e)
		return e.b, true
	}
	e.fail(fmt.Errorf("almaproto: protocol v%d required: a connection opens with an Identify announcing v%d or later", VersionService, VersionService))
	return e.b, false
}

// identify answers an Identify on an open connection. The version was
// agreed at the handshake and is final — frames are in flight under it —
// so the announcement is read but changes nothing.
func (s *Server) identify(_ *taggedConn, d *dec, e *enc) error {
	d.u32()
	if err := d.end(); err != nil {
		return err
	}
	s.identity(e)
	return nil
}

// identity appends the Identify response payload: geometry, the retention
// window start, the agreed version and the in-flight window.
func (s *Server) identity(e *enc) {
	e.u32(uint32(s.arr.PageSize()))
	e.u64(uint64(s.arr.LogicalPages()))
	// Total flash channels the host can drive concurrently.
	e.u32(uint32(s.arr.Shards() * s.arr.ShardConfig().FTL.Flash.Channels))
	e.u32(uint32(s.arr.Shards()))
	e.time(s.arr.RetentionWindowStart())
	e.u32(CurrentVersion)
	e.u32(uint32(s.window))
}

func (s *Server) read(_ *taggedConn, d *dec, e *enc) error {
	lpa, at := d.u64(), d.time()
	if err := d.end(); err != nil {
		return err
	}
	data, done, err := s.arr.Read(lpa, at)
	if err != nil {
		return err
	}
	e.time(done)
	e.bytes(data)
	return nil
}

func (s *Server) write(_ *taggedConn, d *dec, e *enc) error {
	// The payload aliases the request frame: the array consumes it
	// synchronously (the device copies it into the arena), and the frame
	// is only released after dispatch returns.
	lpa, at, data := d.u64(), d.time(), d.bytesAlias()
	if err := d.end(); err != nil {
		return err
	}
	return e.done(s.arr.Write(lpa, data, at))
}

func (s *Server) trim(_ *taggedConn, d *dec, e *enc) error {
	lpa, at := d.u64(), d.time()
	if err := d.end(); err != nil {
		return err
	}
	return e.done(s.arr.Trim(lpa, at))
}

// addrQuery serves the three address-based queries, which differ only in
// how many time bounds precede the issue time (see timeBounds).
func (s *Server) addrQuery(_ *taggedConn, d *dec, e *enc) error {
	op := Op(d.b[0])
	addr, cnt := d.u64(), int(d.u32())
	t1, t2, at := d.bounds(op)
	if err := d.end(); err != nil {
		return err
	}
	var res timekits.Result[[]timekits.PageVersions]
	var err error
	switch op {
	case OpAddrQuery:
		res, err = s.arr.AddrQuery(addr, cnt, t1, at)
	case OpAddrQueryRange:
		res, err = s.arr.AddrQueryRange(addr, cnt, t1, t2, at)
	default:
		res, err = s.arr.AddrQueryAll(addr, cnt, at)
	}
	if err != nil {
		return err
	}
	e.time(res.Done)
	e.u32(uint32(len(res.Value)))
	for _, pv := range res.Value {
		e.u64(pv.LPA)
		encVersions(e, pv.Versions)
	}
	return nil
}

// timeQuery serves the three time-based queries the same way.
func (s *Server) timeQuery(_ *taggedConn, d *dec, e *enc) error {
	op := Op(d.b[0])
	t1, t2, at := d.bounds(op)
	if err := d.end(); err != nil {
		return err
	}
	var res timekits.Result[[]core.UpdateRecord]
	var err error
	switch op {
	case OpTimeQuery:
		res, err = s.arr.TimeQuery(t1, at)
	case OpTimeQueryRange:
		res, err = s.arr.TimeQueryRange(t1, t2, at)
	default:
		res, err = s.arr.TimeQueryAll(at)
	}
	if err != nil {
		return err
	}
	e.time(res.Done)
	encRecords(e, res.Value)
	return nil
}

func (s *Server) rollBack(_ *taggedConn, d *dec, e *enc) error {
	addr, cnt, t, at := d.u64(), int(d.u32()), d.time(), d.time()
	if err := d.end(); err != nil {
		return err
	}
	return e.count(s.arr.RollBack(addr, cnt, t, at))
}

func (s *Server) rollBackAll(_ *taggedConn, d *dec, e *enc) error {
	t, at := d.time(), d.time()
	if err := d.end(); err != nil {
		return err
	}
	return e.count(s.arr.RollBackAll(t, at))
}

func (s *Server) rollBackParallel(_ *taggedConn, d *dec, e *enc) error {
	n := int(d.u32())
	if d.err != nil || n > maxFrame/8 {
		return ErrShortPayload
	}
	lpas := make([]uint64, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		lpas = append(lpas, d.u64())
	}
	threads, t, at := int(d.u32()), d.time(), d.time()
	if err := d.end(); err != nil {
		return err
	}
	return e.count(s.arr.RollBackParallel(lpas, threads, t, at))
}

// stats projects the frozen v1 OpStats payload (see DeviceStats) out of
// the canonical counters.
func (s *Server) stats(_ *taggedConn, d *dec, e *enc) error {
	if err := d.end(); err != nil {
		return err
	}
	c := s.arr.StatsView()
	for _, v := range [...]int64{c.HostPageWrites, c.HostPageReads, c.FlashPrograms,
		c.FlashReads, c.FlashErases, c.DeltasCreated, c.WindowDrops} {
		e.i64(v)
	}
	return nil
}

func (s *Server) metrics(_ *taggedConn, d *dec, e *enc) error {
	if err := d.end(); err != nil {
		return err
	}
	encSnapshot(e, s.arr.ObsSnapshot())
	return nil
}

func (s *Server) trace(_ *taggedConn, d *dec, e *enc) error {
	max := int(d.u32())
	if err := d.end(); err != nil {
		return err
	}
	encEvents(e, s.arr.TraceEvents(max))
	return nil
}

func (s *Server) volCreate(_ *taggedConn, d *dec, e *enc) error {
	name, key := string(d.bytes()), string(d.bytes())
	pages, retention, at := d.u64(), vclock.Duration(d.i64()), d.time()
	if err := d.end(); err != nil {
		return err
	}
	vol, err := s.svc.Create(name, key, pages, retention, at)
	if err != nil {
		return err
	}
	e.u32(vol.ID())
	return nil
}

func (s *Server) volDelete(_ *taggedConn, d *dec, e *enc) error {
	name, key, at := string(d.bytes()), string(d.bytes()), d.time()
	if err := d.end(); err != nil {
		return err
	}
	return e.done(s.svc.Delete(name, key, at))
}

func (s *Server) volList(_ *taggedConn, d *dec, e *enc) error {
	if err := d.end(); err != nil {
		return err
	}
	infos := s.svc.List()
	e.u32(uint32(len(infos)))
	for _, in := range infos {
		e.u32(in.ID)
		e.bytes([]byte(in.Name))
		e.u64(in.Pages)
		e.i64(int64(in.Retention))
		e.time(in.CreatedAt)
	}
	return nil
}

func (s *Server) volAttach(tc *taggedConn, d *dec, e *enc) error {
	name, key, at := string(d.bytes()), string(d.bytes()), d.time()
	if err := d.end(); err != nil {
		return err
	}
	vol, err := s.svc.Attach(name, key)
	if err != nil {
		return err
	}
	tc.mu.Lock()
	tc.attached[vol.ID()] = vol
	tc.mu.Unlock()
	in := vol.Info()
	e.u32(in.ID)
	e.u64(in.Pages)
	e.i64(int64(in.Retention))
	e.time(in.CreatedAt)
	e.time(vol.WindowStart(at))
	return nil
}

func (s *Server) volStats(tc *taggedConn, d *dec, e *enc) error {
	id := d.u32()
	if err := d.end(); err != nil {
		return err
	}
	vol, err := tc.volume(id)
	if err != nil {
		return err
	}
	encSnapshot(e, vol.Snapshot())
	return nil
}

func (s *Server) volRollBack(tc *taggedConn, d *dec, e *enc) error {
	id, t, at := d.u32(), d.time(), d.time()
	if err := d.end(); err != nil {
		return err
	}
	vol, err := tc.volume(id)
	if err != nil {
		return err
	}
	return e.count(vol.RollBack(t, at))
}

// maxBatchOps bounds one OpBatch frame; far above any sane batch, low
// enough that a garbage count cannot balloon the decode allocation.
const maxBatchOps = 1 << 16

// decodeBatchOps decodes a whole OpBatch payload (cursor past the
// opcode) into ops, reusing its capacity, and refuses a bad one as
// dec.end does. Write payloads alias the decoder's buffer (see
// dec.bytesAlias). The returned slice is always the (possibly grown)
// scratch, even on error.
func decodeBatchOps(d *dec, ops []service.BatchOp) (uint32, []service.BatchOp, error) {
	id, n := d.u32(), int(d.u32())
	if d.err != nil || n > maxBatchOps {
		return 0, ops, fmt.Errorf("almaproto: %v: bad op count %d", OpBatch, n)
	}
	for i := 0; i < n; i++ {
		bop := service.BatchOp{Kind: service.OpKind(d.u8()), LPA: d.u64(), At: d.time()}
		if bop.Kind == service.KindWrite {
			bop.Data = d.bytesAlias()
		}
		if d.err != nil {
			return 0, ops, d.err
		}
		ops = append(ops, bop)
	}
	return id, ops, d.end()
}

// encBatchResults encodes the positional OpBatch response payload.
func encBatchResults(e *enc, ops []service.BatchOp, results []service.BatchResult) {
	e.u32(uint32(len(results)))
	for i, r := range results {
		if r.Err != nil {
			// Typed per-op status: the op failed, the batch did not.
			e.fail(r.Err)
			continue
		}
		e.u8(StatusOK)
		e.time(r.Done)
		if ops[i].Kind == service.KindRead {
			e.bytes(r.Data)
		}
	}
}
