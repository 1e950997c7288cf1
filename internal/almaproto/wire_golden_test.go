package almaproto

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"almanac/internal/obs"
	"almanac/internal/service"
	"almanac/internal/timekits"
	"almanac/internal/vclock"
)

// raw builds request bodies by hand, independent of the enc helper, so
// the golden test pins the documented little-endian field layout rather
// than merely checking that enc and dec agree with each other.
type raw []byte

func (r raw) u8(v uint8) raw      { return append(r, v) }
func (r raw) u32(v uint32) raw    { return binary.LittleEndian.AppendUint32(r, v) }
func (r raw) u64(v uint64) raw    { return binary.LittleEndian.AppendUint64(r, v) }
func (r raw) i64(v int64) raw     { return r.u64(uint64(v)) }
func (r raw) t(t vclock.Time) raw { return r.i64(int64(t)) }
func (r raw) blob(p []byte) raw   { return append(r.u32(uint32(len(p))), p...) }

// TestGoldenRequestBytes pins the client-side encoding of a simple
// request against a hardcoded byte string: opcode, then fields in
// documented order, little endian throughout. The request is built in its
// frame behind the 12 bytes of header room send stamps.
func TestGoldenRequestBytes(t *testing.T) {
	rq := (&Client{}).begin(OpRead)
	rq.u64(0x0102030405060708)
	rq.time(vclock.Time(0x1112131415161718))
	want := []byte{
		0x02,
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
		0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,
	}
	if !bytes.Equal(rq.b[12:], want) {
		t.Fatalf("OpRead request encoding:\n got % x\nwant % x", rq.b[12:], want)
	}
}

// dispatcher returns one connection's command runner: it dispatches a
// request body as the serve loop does and returns the response body.
func dispatcher(srv *Server) func(body []byte) []byte {
	tc := &taggedConn{attached: make(map[uint32]*service.Volume)}
	return func(body []byte) []byte {
		var e enc
		srv.dispatch(tc, body, &e)
		return e.b
	}
}

// TestGoldenWire round-trips every opcode byte-for-byte: each request is
// hand-built (raw, not enc) and dispatched against one device, while a
// twin device is driven through the identical operation sequence via the
// direct API; the simulation is deterministic, so the server's response
// bytes must equal a hand-encoded response derived from the twin.
// Observability stays disabled so the OpMetrics/OpTrace payloads are
// deterministic too (counters only, no wall-time histograms). The first
// step is also the handshake: its untagged answer is the same payload.
func TestGoldenWire(t *testing.T) {
	dev := newDevice(t)
	twin := newDevice(t)
	srv := serveDevice(t, dev)
	dispatch := dispatcher(srv)
	kit := timekits.New(twin)
	ps := twin.PageSize()

	step := func(name string, req raw, want *enc) {
		t.Helper()
		resp := dispatch(req)
		if !bytes.Equal(resp, want.b) {
			t.Fatalf("%s response:\n got % x\nwant % x", name, resp, want.b)
		}
	}
	okResp := func() *enc {
		e := &enc{}
		e.u8(0)
		return e
	}

	// Identify, announcing the current version; the response carries
	// geometry plus the agreed version and — since v4 — the server's
	// in-flight window appended at the end.
	want := okResp()
	want.u32(uint32(twin.PageSize()))
	want.u64(uint64(twin.LogicalPages()))
	want.u32(2) // newDevice geometry: 2 channels
	want.u32(1)
	want.time(twin.RetentionWindowStart())
	want.u32(CurrentVersion)
	want.u32(DefaultWindow)
	step("Identify", raw{}.u8(uint8(OpIdentify)).u32(CurrentVersion), want)
	if resp, ok := srv.handshake(raw{}.u8(uint8(OpIdentify)).u32(CurrentVersion)); !ok || !bytes.Equal(resp, want.b) {
		t.Fatalf("handshake response (accepted %v):\n got % x\nwant % x", ok, resp, want.b)
	}

	// Two versions of LPA 5, then a write+trim of LPA 6.
	dataA, dataB := page(nil, 0xa1, ps), page(nil, 0xb2, ps)
	at1, at2 := vclock.Time(vclock.Hour), vclock.Time(2*vclock.Hour)
	done, err := twin.Write(5, dataA, at1)
	if err != nil {
		t.Fatal(err)
	}
	want = okResp()
	want.time(done)
	step("Write v1", raw{}.u8(uint8(OpWrite)).u64(5).t(at1).blob(dataA), want)

	done, err = twin.Write(5, dataB, at2)
	if err != nil {
		t.Fatal(err)
	}
	want = okResp()
	want.time(done)
	step("Write v2", raw{}.u8(uint8(OpWrite)).u64(5).t(at2).blob(dataB), want)

	rat := done.Add(vclock.Second)
	rdata, rdone, err := twin.Read(5, rat)
	if err != nil {
		t.Fatal(err)
	}
	want = okResp()
	want.time(rdone)
	want.bytes(rdata)
	step("Read", raw{}.u8(uint8(OpRead)).u64(5).t(rat), want)

	wat := rdone.Add(vclock.Second)
	done, err = twin.Write(6, dataA, wat)
	if err != nil {
		t.Fatal(err)
	}
	want = okResp()
	want.time(done)
	step("Write lpa6", raw{}.u8(uint8(OpWrite)).u64(6).t(wat).blob(dataA), want)

	tat := done.Add(vclock.Second)
	done, err = twin.Trim(6, tat)
	if err != nil {
		t.Fatal(err)
	}
	want = okResp()
	want.time(done)
	step("Trim", raw{}.u8(uint8(OpTrim)).u64(6).t(tat), want)

	now := vclock.Time(3 * vclock.Hour)
	encPVs := func(e *enc, res timekits.Result[[]timekits.PageVersions]) {
		e.time(res.Done)
		e.u32(uint32(len(res.Value)))
		for _, pv := range res.Value {
			e.u64(pv.LPA)
			encVersions(e, pv.Versions)
		}
	}

	aq, err := kit.AddrQuery(5, 1, at1.Add(vclock.Minute), now)
	if err != nil {
		t.Fatal(err)
	}
	want = okResp()
	encPVs(want, aq)
	step("AddrQuery", raw{}.u8(uint8(OpAddrQuery)).u64(5).u32(1).t(at1.Add(vclock.Minute)).t(now), want)

	ar, err := kit.AddrQueryRange(5, 1, 0, at2, now)
	if err != nil {
		t.Fatal(err)
	}
	want = okResp()
	encPVs(want, ar)
	step("AddrQueryRange", raw{}.u8(uint8(OpAddrQueryRange)).u64(5).u32(1).t(0).t(at2).t(now), want)

	aa, err := kit.AddrQueryAll(5, 1, now)
	if err != nil {
		t.Fatal(err)
	}
	want = okResp()
	encPVs(want, aa)
	step("AddrQueryAll", raw{}.u8(uint8(OpAddrQueryAll)).u64(5).u32(1).t(now), want)

	tq, err := kit.TimeQuery(at2-1, now)
	if err != nil {
		t.Fatal(err)
	}
	want = okResp()
	want.time(tq.Done)
	encRecords(want, tq.Value)
	step("TimeQuery", raw{}.u8(uint8(OpTimeQuery)).t(at2-1).t(now), want)

	tr, err := kit.TimeQueryRange(0, at2, now)
	if err != nil {
		t.Fatal(err)
	}
	want = okResp()
	want.time(tr.Done)
	encRecords(want, tr.Value)
	step("TimeQueryRange", raw{}.u8(uint8(OpTimeQueryRange)).t(0).t(at2).t(now), want)

	ta, err := kit.TimeQueryAll(now)
	if err != nil {
		t.Fatal(err)
	}
	want = okResp()
	want.time(ta.Done)
	encRecords(want, ta.Value)
	step("TimeQueryAll", raw{}.u8(uint8(OpTimeQueryAll)).t(now), want)

	rbAt := vclock.Time(4 * vclock.Hour)
	rb, err := kit.RollBack(5, 1, at1.Add(vclock.Minute), rbAt)
	if err != nil {
		t.Fatal(err)
	}
	want = okResp()
	want.time(rb.Done)
	want.u32(uint32(rb.Value))
	step("RollBack", raw{}.u8(uint8(OpRollBack)).u64(5).u32(1).t(at1.Add(vclock.Minute)).t(rbAt), want)

	rpAt := rb.Done.Add(vclock.Second)
	rp, err := kit.RollBackParallel([]uint64{5}, 2, at2.Add(vclock.Minute), rpAt)
	if err != nil {
		t.Fatal(err)
	}
	want = okResp()
	want.time(rp.Done)
	want.u32(uint32(rp.Value))
	step("RollBackParallel", raw{}.u8(uint8(OpRollBackParallel)).u32(1).u64(5).u32(2).t(at2.Add(vclock.Minute)).t(rpAt), want)

	raAt := rp.Done.Add(vclock.Second)
	ra, err := kit.RollBackAll(at2.Add(vclock.Minute), raAt)
	if err != nil {
		t.Fatal(err)
	}
	want = okResp()
	want.time(ra.Done)
	want.u32(uint32(ra.Value))
	step("RollBackAll", raw{}.u8(uint8(OpRollBackAll)).t(at2.Add(vclock.Minute)).t(raAt), want)

	c := twin.Counters()
	want = okResp()
	for _, v := range []int64{c.HostPageWrites, c.HostPageReads, c.FlashPrograms,
		c.FlashReads, c.FlashErases, c.DeltasCreated, c.WindowDrops} {
		want.i64(v)
	}
	step("Stats", raw{}.u8(uint8(OpStats)), want)

	want = okResp()
	encSnapshot(want, twin.Snapshot())
	step("Metrics", raw{}.u8(uint8(OpMetrics)), want)

	want = okResp()
	want.u32(0) // obs disabled: the trace ring is empty
	step("Trace", raw{}.u8(uint8(OpTrace)).u32(16), want)
}

// TestSnapshotWireRoundTrip pushes a synthetic snapshot — non-trivial
// histograms included — through the v3 encoding: decode(encode(s)) must
// reproduce s exactly, consume every byte, and re-encode to identical
// bytes (the sorted-name order makes the encoding deterministic).
func TestSnapshotWireRoundTrip(t *testing.T) {
	mkHist := func(seed int64) obs.HistSnapshot {
		h := obs.HistSnapshot{Count: 7 + seed, SumNS: 900 * seed, MaxNS: 1e6 * seed}
		for i := range h.Buckets {
			h.Buckets[i] = seed * int64(i%5)
		}
		return h
	}
	s := obs.Snapshot{
		Shards:        3,
		WindowStartNS: 123456789,
		Segments:      11,
		C: obs.Counters{
			HostPageWrites: 42, TrimOps: 3, FlashErases: 9,
			GCDeltaOps: 5, EstimatorTrips: 2,
		},
		Ops: map[string]obs.OpStats{
			"host-write": {Count: 42, Errors: 1, Virt: mkHist(2), Wall: mkHist(3)},
			"gc-pass":    {Count: 4, Virt: mkHist(1)},
		},
	}
	e := &enc{}
	encSnapshot(e, s)
	d := &dec{b: e.b}
	got := decSnapshot(d)
	if d.err != nil {
		t.Fatal(d.err)
	}
	if d.pos != len(d.b) {
		t.Fatalf("%d undecoded bytes", len(d.b)-d.pos)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("snapshot round trip:\n got %+v\nwant %+v", got, s)
	}
	e2 := &enc{}
	encSnapshot(e2, got)
	if !bytes.Equal(e.b, e2.b) {
		t.Fatal("re-encoding is not byte-identical")
	}
}

// TestEventsWireRoundTrip does the same for the OpTrace payload.
func TestEventsWireRoundTrip(t *testing.T) {
	evs := []obs.Event{
		{Class: obs.HostWrite, Shard: 2, OK: true, LPA: 77, IssueNS: 100, DoneNS: 250},
		{Class: obs.Rollback, Shard: 0, OK: false, LPA: 0, IssueNS: 300, DoneNS: 900},
	}
	e := &enc{}
	encEvents(e, evs)
	d := &dec{b: e.b}
	got := decEvents(d)
	if d.err != nil || d.pos != len(d.b) {
		t.Fatalf("decode: err=%v, %d bytes left", d.err, len(d.b)-d.pos)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("events round trip:\n got %+v\nwant %+v", got, evs)
	}
}

func TestNegotiationAgreesOnCurrent(t *testing.T) {
	c, _ := pipePair(t)
	id, err := c.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if id.Version != CurrentVersion {
		t.Fatalf("negotiated v%d, want v%d", id.Version, CurrentVersion)
	}
}

func TestUnknownOpcodeNamesVersion(t *testing.T) {
	dev := newDevice(t)
	srv := serveDevice(t, dev)
	resp := dispatcher(srv)([]byte{200})
	if resp[0] == 0 {
		t.Fatal("unknown opcode accepted")
	}
	msg := string((&dec{b: resp, pos: 1}).bytes())
	if !strings.Contains(msg, "unknown opcode 200") || !strings.Contains(msg, "v4") {
		t.Fatalf("error does not name opcode and version: %q", msg)
	}
}

// TestMetricsTraceOverWire is the end-to-end v3 path: instrumentation on,
// traffic over the wire, then the fetched histograms must sum consistently
// with the scalar counters (the count-consistency invariant) and the trace
// must be chronological.
func TestMetricsTraceOverWire(t *testing.T) {
	c, dev := pipePair(t)
	dev.Obs().SetEnabled(true)
	ps := dev.PageSize()

	at := vclock.Time(vclock.Second)
	for i := 0; i < 10; i++ {
		done, err := c.Write(uint64(i), page(c, byte(i+1), ps), at)
		if err != nil {
			t.Fatal(err)
		}
		at = done.Add(vclock.Second)
	}
	for i := 0; i < 5; i++ {
		_, done, err := c.Read(uint64(i), at)
		if err != nil {
			t.Fatal(err)
		}
		at = done.Add(vclock.Second)
	}
	if _, err := c.Trim(9, at); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Shards != 1 {
		t.Fatalf("shards = %d", snap.Shards)
	}
	for _, ck := range []struct {
		op   string
		want int64
	}{
		{"host-write", snap.C.HostPageWrites},
		{"host-read", snap.C.HostPageReads},
		{"host-trim", snap.C.TrimOps},
		{"flash-read", snap.C.FlashReads},
		{"flash-program", snap.C.FlashPrograms},
		{"flash-erase", snap.C.FlashErases},
	} {
		st, ok := snap.Ops[ck.op]
		if ck.want == 0 {
			if ok {
				t.Fatalf("%s present with zero counter", ck.op)
			}
			continue
		}
		if st.Count != ck.want {
			t.Fatalf("%s histogram count %d != counter %d", ck.op, st.Count, ck.want)
		}
		var sum int64
		for _, n := range st.Virt.Buckets {
			sum += n
		}
		if sum != st.Count {
			t.Fatalf("%s: buckets sum to %d, count %d", ck.op, sum, st.Count)
		}
	}
	if snap.C.HostPageWrites != 10 || snap.C.HostPageReads != 5 || snap.C.TrimOps != 1 {
		t.Fatalf("counters off: %+v", snap.C)
	}

	evs, err := c.Trace(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 16 { // 10 writes + 5 reads + 1 trim; flash micro-ops are histogram-only
		t.Fatalf("trace holds %d events, want 16", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].DoneNS < evs[i-1].DoneNS {
			t.Fatalf("trace not chronological at %d", i)
		}
	}
	last := evs[len(evs)-1]
	if last.Class != obs.HostTrim || last.LPA != 9 || !last.OK {
		t.Fatalf("newest event is not the trim: %+v", last)
	}

	tail, err := c.Trace(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tail, evs[len(evs)-3:]) {
		t.Fatalf("Trace(3) is not the newest tail:\n got %+v\nwant %+v", tail, evs[len(evs)-3:])
	}
}
