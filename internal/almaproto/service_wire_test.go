package almaproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"almanac/internal/array"
	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/service"
	"almanac/internal/vclock"
)

// newServiceArray builds a small two-shard array wrapped in a volume
// service, mirroring newDevice's geometry per shard.
func newServiceArray(t testing.TB) *service.Service {
	t.Helper()
	fc := flash.DefaultConfig()
	fc.Channels = 2
	fc.ChipsPerChannel = 1
	fc.BlocksPerPlane = 32
	fc.PagesPerBlock = 16
	fc.PageSize = 512
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0
	arr, err := array.New(array.Config{Shards: 2, Shard: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { arr.Close() })
	return service.New(arr)
}

// servicePipe wires a client to a volume-service server over net.Pipe.
func servicePipe(t testing.TB) (*Client, *service.Service) {
	t.Helper()
	svc := newServiceArray(t)
	srv := NewServiceServer(svc)
	cliEnd, srvEnd := net.Pipe()
	go srv.ServeOne(srvEnd)
	c := NewClient(cliEnd)
	t.Cleanup(func() { c.Close(); srvEnd.Close() })
	return c, svc
}

// rawConn connects a hand-driven client end to srv and returns its round
// trip: write one frame body, read the next. The caller keeps one frame in
// flight at a time, so completions cannot reorder.
func rawConn(t *testing.T, srv *Server) func(frame raw) []byte {
	cliEnd, srvEnd := net.Pipe()
	t.Cleanup(func() { cliEnd.Close(); srvEnd.Close() })
	go srv.ServeOne(srvEnd)
	return func(frame raw) []byte {
		t.Helper()
		var resp []byte
		var rerr error
		done := make(chan struct{})
		go func() {
			resp, rerr = readFrame(cliEnd)
			close(done)
		}()
		if err := writeFrame(cliEnd, frame); err != nil {
			t.Fatal(err)
		}
		<-done
		if rerr != nil {
			t.Fatal(rerr)
		}
		return resp
	}
}

// TestGoldenWireV4 pins the byte-level encoding of the tagged transport
// and every v4 opcode. Requests are hand-built (raw, not enc) and written
// straight to the connection; a twin service is driven through the
// identical operation sequence via the direct API, and — the simulation
// being deterministic — the server's response frames must equal
// hand-encoded responses derived from the twin, request ID echo included.
// One frame is kept in flight at a time so completions cannot reorder.
func TestGoldenWireV4(t *testing.T) {
	svc := newServiceArray(t)
	twin := newServiceArray(t)
	rt := rawConn(t, NewServiceServer(svc))
	// tagStep sends one tagged request and checks the completion frame
	// byte-for-byte: echoed request ID, then status and payload.
	tagStep := func(name string, reqID uint64, req raw, want *enc) {
		t.Helper()
		resp := rt(append(raw{}.u64(reqID), req...))
		exp := append(raw{}.u64(reqID), want.b...)
		if !bytes.Equal(resp, []byte(exp)) {
			t.Fatalf("%s completion:\n got % x\nwant % x", name, resp, exp)
		}
	}
	okResp := func() *enc {
		e := &enc{}
		e.u8(0)
		return e
	}

	arr := twin.Array()
	ps := arr.PageSize()

	// Untagged Identify announcing v4: geometry, version, then the
	// appended in-flight window. This is the last untagged frame.
	want := okResp()
	want.u32(uint32(arr.PageSize()))
	want.u64(uint64(arr.LogicalPages()))
	want.u32(4) // 2 shards × 2 channels
	want.u32(2)
	want.time(arr.RetentionWindowStart())
	want.u32(VersionService)
	want.u32(DefaultWindow)
	resp := rt(raw{}.u8(uint8(OpIdentify)).u32(CurrentVersion))
	if !bytes.Equal(resp, want.b) {
		t.Fatalf("Identify response:\n got % x\nwant % x", resp, want.b)
	}

	// VolCreate: name, key, pages, retention, at → volume id.
	at1 := vclock.Time(vclock.Hour)
	tvol, err := twin.Create("alpha", "k1", 64, 0, at1)
	if err != nil {
		t.Fatal(err)
	}
	want = okResp()
	want.u32(tvol.ID())
	tagStep("VolCreate", 0xA1, raw{}.u8(uint8(OpVolCreate)).
		blob([]byte("alpha")).blob([]byte("k1")).u64(64).i64(0).t(at1), want)

	// VolAttach echoes the volume description plus its window start at
	// the attach time.
	in := tvol.Info()
	want = okResp()
	want.u32(in.ID)
	want.u64(in.Pages)
	want.i64(int64(in.Retention))
	want.time(in.CreatedAt)
	want.time(tvol.WindowStart(at1))
	tagStep("VolAttach", 0xA2, raw{}.u8(uint8(OpVolAttach)).
		blob([]byte("alpha")).blob([]byte("k1")).t(at1), want)

	// OpBatch: two writes, a read, a trim — all volume-relative.
	dataA, dataB := page(nil, 0xa1, ps), page(nil, 0xb2, ps)
	at2 := vclock.Time(2 * vclock.Hour)
	ops := []service.BatchOp{
		{Kind: service.KindWrite, LPA: 3, Data: dataA, At: at2},
		{Kind: service.KindWrite, LPA: 7, Data: dataB, At: at2.Add(vclock.Second)},
		{Kind: service.KindRead, LPA: 3, At: at2.Add(2 * vclock.Second)},
		{Kind: service.KindTrim, LPA: 7, At: at2.Add(3 * vclock.Second)},
	}
	var run service.BatchRun
	tvol.StartBatch(ops, &run)
	results := run.Complete()
	req := raw{}.u8(uint8(OpBatch)).u32(tvol.ID()).u32(uint32(len(ops)))
	for _, op := range ops {
		req = req.u8(uint8(op.Kind)).u64(op.LPA).t(op.At)
		if op.Kind == service.KindWrite {
			req = req.blob(op.Data)
		}
	}
	want = okResp()
	want.u32(uint32(len(results)))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("twin batch op %d failed: %v", i, r.Err)
		}
		want.u8(StatusOK)
		want.time(r.Done)
		if ops[i].Kind == service.KindRead {
			want.bytes(r.Data)
		}
	}
	tagStep("Batch", 0xA3, req, want)

	// VolList: count then each volume in name order.
	want = okResp()
	infos := twin.List()
	want.u32(uint32(len(infos)))
	for _, in := range infos {
		want.u32(in.ID)
		want.bytes([]byte(in.Name))
		want.u64(in.Pages)
		want.i64(int64(in.Retention))
		want.time(in.CreatedAt)
	}
	tagStep("VolList", 0xA4, raw{}.u8(uint8(OpVolList)), want)

	// VolRollBack to between the writes and the trim: LPA 7 reverts to
	// dataB.
	rbT, rbAt := at2.Add(2*vclock.Second), vclock.Time(4*vclock.Hour)
	res, err := tvol.RollBack(rbT, rbAt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value == 0 {
		t.Fatal("twin rollback changed nothing; the golden step would not exercise reversion")
	}
	want = okResp()
	want.time(res.Done)
	want.u32(uint32(res.Value))
	tagStep("VolRollBack", 0xA5, raw{}.u8(uint8(OpVolRollBack)).u32(tvol.ID()).t(rbT).t(rbAt), want)

	// VolStats: the volume's obs snapshot (registry disabled, so counters
	// only — deterministic).
	want = okResp()
	encSnapshot(want, tvol.Snapshot())
	tagStep("VolStats", 0xA6, raw{}.u8(uint8(OpVolStats)).u32(tvol.ID()), want)

	// VolDelete: the scrub's virtual completion time.
	at5 := vclock.Time(5 * vclock.Hour)
	done, err := twin.Delete("alpha", "k1", at5)
	if err != nil {
		t.Fatal(err)
	}
	want = okResp()
	want.time(done)
	tagStep("VolDelete", 0xA7, raw{}.u8(uint8(OpVolDelete)).
		blob([]byte("alpha")).blob([]byte("k1")).t(at5), want)
}

// TestTaggedOutOfOrderCompletion proves the v4 transport completes
// requests out of submission order: a read stalled in the backend does
// not block the completion of a read submitted after it.
func TestTaggedOutOfOrderCompletion(t *testing.T) {
	dev := newDevice(t)
	srv := serveDevice(t, dev)
	gate := make(chan struct{})
	// Reads of LPA 0 block until the gate closes, making completion order
	// controllable from the test.
	srv.hold = func(op Op, body []byte) {
		if op == OpRead && binary.LittleEndian.Uint64(body[1:]) == 0 {
			<-gate
		}
	}

	cliEnd, srvEnd := net.Pipe()
	t.Cleanup(func() { cliEnd.Close(); srvEnd.Close() })
	go srv.ServeOne(srvEnd)
	c := NewClient(cliEnd)

	if _, err := c.Identify(); err != nil {
		t.Fatal(err)
	}
	ps := dev.PageSize()
	if _, err := c.Write(0, page(c, 0x01, ps), vclock.Time(vclock.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(1, page(c, 0x02, ps), vclock.Time(2*vclock.Second)); err != nil {
		t.Fatal(err)
	}

	at := vclock.Time(vclock.Minute)
	r0, err := c.submitLPA(OpRead, 0, at) // stalls in the gated backend
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.submitLPA(OpRead, 1, at)
	if err != nil {
		t.Fatal(err)
	}
	// r1 completes while r0 is still held — its wait returning at all is
	// the proof, since r0's completion cannot be written before the gate
	// opens.
	data, _, err := waitRead(r1)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0x02 {
		t.Fatalf("read 1 returned %#x", data[0])
	}
	close(gate)
	data, _, err = waitRead(r0)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0x01 {
		t.Fatalf("read 0 returned %#x", data[0])
	}
}

// TestBatchPartialFailure drives a mixed batch over the wire: the bad ops
// come back with their own typed statuses and the good ops complete
// unharmed.
func TestBatchPartialFailure(t *testing.T) {
	c, _ := servicePipe(t)
	if _, err := c.Identify(); err != nil {
		t.Fatal(err)
	}
	at := vclock.Time(vclock.Hour)
	info, err := c.VolCreate("data", "secret", 16, 0, at)
	if err != nil {
		t.Fatal(err)
	}
	if info, err = c.VolAttach("data", "secret", at); err != nil {
		t.Fatal(err)
	}

	payload := page(c, 0x5a, 512)
	results, err := c.Batch(info.ID, []service.BatchOp{
		{Kind: service.KindWrite, LPA: 2, Data: payload, At: at.Add(vclock.Second)},
		{Kind: service.KindWrite, LPA: 999, Data: payload, At: at.Add(vclock.Second)}, // out of range
		{Kind: service.KindRead, LPA: 2, At: at.Add(2 * vclock.Second)},
		{Kind: service.KindRead, LPA: 3, At: at.Add(-vclock.Hour)}, // before volume creation
		{Kind: service.KindTrim, LPA: 2, At: at.Add(3 * vclock.Second)},
	})
	if err != nil {
		t.Fatalf("batch itself failed: %v", err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results", len(results))
	}
	for _, i := range []int{0, 2, 4} {
		if results[i].Err != nil {
			t.Fatalf("good op %d poisoned: %v", i, results[i].Err)
		}
	}
	if !bytes.Equal(results[2].Data, payload) {
		t.Fatal("read in a partially-failing batch returned wrong data")
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "out of range") {
		t.Fatalf("out-of-range op error = %v", results[1].Err)
	}
	if !errors.Is(results[3].Err, service.ErrBeforeWindow) {
		t.Fatalf("before-creation op error = %v, want ErrBeforeWindow through the wire", results[3].Err)
	}
}

// TestVolumeAuthOverWire checks the typed auth failures survive the wire:
// wrong keys and unattached ids both come back as service.ErrAuth.
func TestVolumeAuthOverWire(t *testing.T) {
	c, _ := servicePipe(t)
	at := vclock.Time(vclock.Hour)
	if _, err := c.VolCreate("vault", "right", 8, 0, at); err != nil {
		t.Fatal(err)
	}
	if _, err := c.VolAttach("vault", "wrong", at); !errors.Is(err, service.ErrAuth) {
		t.Fatalf("wrong key attach error = %v, want ErrAuth", err)
	}
	if _, err := c.VolAttach("ghost", "x", at); !errors.Is(err, service.ErrNoVolume) {
		t.Fatalf("missing volume attach error = %v, want ErrNoVolume", err)
	}
	if _, err := c.VolStats(42); !errors.Is(err, service.ErrAuth) {
		t.Fatalf("unattached VolStats error = %v, want ErrAuth", err)
	}
	if _, err := c.VolDelete("vault", "wrong", at); !errors.Is(err, service.ErrAuth) {
		t.Fatalf("wrong key delete error = %v, want ErrAuth", err)
	}
}

// TestPipelinedClientConcurrency hammers one tagged connection from many
// goroutines — sync methods and bare submissions together — and then
// verifies every page landed intact. Run under -race this also proves the
// reader-token plumbing is clean: whichever caller is waiting reads for
// all of them.
func TestPipelinedClientConcurrency(t *testing.T) {
	c, _ := servicePipe(t)
	if _, err := c.Identify(); err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		pages   = 16
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w * pages)
			at := vclock.Time(vclock.Hour + vclock.Duration(w)*vclock.Minute)
			for i := uint64(0); i < pages; i++ {
				if _, err := c.Write(base+i, page(c, byte(w*pages+int(i)), 512), at.Add(vclock.Duration(i)*vclock.Second)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Verify with every read in flight at once, collected by concurrent
	// waiters in no particular order.
	var bad atomic.Int32
	at := vclock.Time(2 * vclock.Hour)
	for w := 0; w < workers; w++ {
		for i := uint64(0); i < pages; i++ {
			want := byte(w*pages + int(i))
			r, err := c.submitLPA(OpRead, uint64(w*pages)+i, at)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if data, _, err := waitRead(r); err != nil || len(data) == 0 || data[0] != want {
					bad.Add(1)
				}
			}()
		}
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d pipelined reads returned wrong data", n)
	}
}

// TestSubmitSurvivesDrain checks the submit/wait path stays usable after
// its submissions have all been collected and that trims ride it too.
func TestSubmitSurvivesDrain(t *testing.T) {
	c, _ := servicePipe(t)
	if _, err := c.Identify(); err != nil {
		t.Fatal(err)
	}
	at := vclock.Time(vclock.Hour)
	var writes []*rawPending
	for i := uint64(0); i < 8; i++ {
		w, err := c.submitWrite(i, page(c, byte(i+1), 512), at.Add(vclock.Duration(i)*vclock.Second))
		if err != nil {
			t.Fatal(err)
		}
		writes = append(writes, w)
	}
	for _, w := range writes {
		if _, err := waitDone(w); err != nil {
			t.Fatal(err)
		}
	}
	var trims []*rawPending
	for i := uint64(0); i < 4; i++ {
		tr, err := c.submitLPA(OpTrim, i, at.Add(vclock.Minute))
		if err != nil {
			t.Fatal(err)
		}
		trims = append(trims, tr)
	}
	for _, tr := range trims {
		if _, err := waitDone(tr); err != nil {
			t.Fatal(err)
		}
	}
	if data, _, err := c.Read(0, at.Add(2*vclock.Minute)); err != nil || data[0] != 0 {
		t.Fatalf("trimmed page: %v %#x, want zeroes", err, data[0])
	}
	data, _, err := c.Read(5, at.Add(2*vclock.Minute))
	if err != nil || data[0] != 6 {
		t.Fatalf("untrimmed page: %v %#x", err, data[0])
	}
}

// TestIdentifyNegotiatesOnce announces v3 in the middle of a v4 pipeline.
// The version was agreed at the handshake and frames are in flight under
// it, so the tagged Identify must report that version and window and
// change neither: batches submitted before and after it keep completing.
func TestIdentifyNegotiatesOnce(t *testing.T) {
	c, _ := servicePipe(t)
	id, err := c.Identify()
	if err != nil {
		t.Fatal(err)
	}
	at := vclock.Time(vclock.Hour)
	if _, err := c.VolCreate("pipe", "k", 64, 0, at); err != nil {
		t.Fatal(err)
	}
	info, err := c.VolAttach("pipe", "k", at)
	if err != nil {
		t.Fatal(err)
	}
	var pending []*PendingBatch
	submit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			at = at.Add(vclock.Second)
			lpa := uint64(len(pending) % 64)
			pb, err := c.SubmitBatch(info.ID, []service.BatchOp{
				{Kind: service.KindWrite, LPA: lpa, Data: page(c, byte(lpa), id.PageSize), At: at},
				{Kind: service.KindRead, LPA: lpa, At: at.Add(vclock.Millisecond)},
			})
			if err != nil {
				t.Fatal(err)
			}
			pending = append(pending, pb)
		}
	}
	submit(8)

	rq := c.begin(OpIdentify)
	rq.u32(3)
	r, err := c.roundTrip(&rq)
	if err != nil {
		t.Fatalf("Identify on a tagged connection: %v", err)
	}
	r.u32() // page size
	r.u64() // logical pages
	r.u32() // channels
	r.u32() // shards
	r.time()
	if v, w := r.u32(), r.u32(); v != VersionService || int(w) != id.Window {
		t.Fatalf("re-Identify announcing v3 reported v%d window %d, want the agreed v%d window %d", v, w, VersionService, id.Window)
	}
	if err := r.finish(); err != nil {
		t.Fatal(err)
	}

	submit(8)
	for i, pb := range pending {
		results, err := pb.Wait()
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		for j, res := range results {
			if res.Err != nil {
				t.Fatalf("batch %d op %d: %v", i, j, res.Err)
			}
		}
		if results[1].Data[0] != byte(i%64) {
			t.Fatalf("batch %d read back %#x", i, results[1].Data[0])
		}
	}
}

// refusal is the completion of a refused request: the echoed request ID,
// a status and the error message.
func refusal(reqID uint64, status uint8, msg string) []byte {
	return raw{}.u64(reqID).u8(status).blob([]byte(msg))
}

// TestGoldenBatchRefusals pins the bytes of every way an OpBatch frame is
// refused as a whole: an id this connection never attached, an op count
// past maxBatchOps, an op cut short, and a trailing byte after the last
// op.
func TestGoldenBatchRefusals(t *testing.T) {
	svc := newServiceArray(t)
	rt := rawConn(t, NewServiceServer(svc))
	at := vclock.Time(vclock.Hour)
	if resp := rt(raw{}.u8(uint8(OpIdentify)).u32(CurrentVersion)); resp[0] != StatusOK {
		t.Fatalf("handshake refused: % x", resp)
	}
	for i, req := range []raw{
		raw{}.u8(uint8(OpVolCreate)).blob([]byte("v")).blob([]byte("k")).u64(16).i64(0).t(at),
		raw{}.u8(uint8(OpVolAttach)).blob([]byte("v")).blob([]byte("k")).t(at),
	} {
		if resp := rt(append(raw{}.u64(uint64(i)), req...)); resp[8] != StatusOK {
			t.Fatalf("setup step %d refused: % x", i, resp)
		}
	}
	read := raw{}.u8(uint8(service.KindRead)).u64(2).t(at)
	for _, c := range []struct {
		name string
		req  raw
		want []byte
	}{
		{"unattached id", append(raw{}.u8(uint8(OpBatch)).u32(9).u32(1), read...),
			refusal(0xB1, StatusAuth, "service: tenant key rejected: volume id 9 not attached on this connection")},
		{"op count past maxBatchOps", raw{}.u8(uint8(OpBatch)).u32(1).u32(maxBatchOps + 1),
			refusal(0xB1, StatusError, "almaproto: Batch: bad op count 65537")},
		{"truncated op", append(raw{}.u8(uint8(OpBatch)).u32(1).u32(1), read[:5]...),
			refusal(0xB1, StatusError, "almaproto: truncated payload")},
		{"trailing byte", append(append(raw{}.u8(uint8(OpBatch)).u32(1).u32(1), read...), 0),
			refusal(0xB1, StatusError, "almaproto: Batch: 1 trailing payload bytes")},
	} {
		if got := rt(append(raw{}.u64(0xB1), c.req...)); !bytes.Equal(got, c.want) {
			t.Fatalf("%s:\n got % x\nwant % x", c.name, got, c.want)
		}
	}
}

// TestRefusedRequestHasNoEffect sends every mutating opcode a valid
// payload followed by one trailing byte. The request is refused, and
// refused before it runs: the device counters, the volume list and the
// connection's attachments read exactly as they did before it.
func TestRefusedRequestHasNoEffect(t *testing.T) {
	const lpa = 100 // a block LPA past both volumes' extents
	t1, t2, t3 := vclock.Time(vclock.Hour), vclock.Time(2*vclock.Hour), vclock.Time(3*vclock.Hour)
	back := t1.Add(vclock.Second) // between the two versions of every page
	data := page(nil, 0xc3, 512)
	for _, c := range []struct {
		op  Op
		req raw
	}{
		{OpWrite, raw{}.u64(lpa).t(t3).blob(data)},
		{OpTrim, raw{}.u64(lpa).t(t3)},
		{OpRollBack, raw{}.u64(lpa).u32(1).t(back).t(t3)},
		{OpRollBackAll, raw{}.t(back).t(t3)},
		{OpRollBackParallel, raw{}.u32(1).u64(lpa).u32(1).t(back).t(t3)},
		{OpVolCreate, raw{}.blob([]byte("c")).blob([]byte("k")).u64(16).i64(0).t(t3)},
		{OpVolDelete, raw{}.blob([]byte("b")).blob([]byte("k")).t(t3)},
		{OpVolAttach, raw{}.blob([]byte("b")).blob([]byte("k")).t(t3)},
		{OpVolRollBack, raw{}.u32(1).t(back).t(t3)},
		{OpBatch, raw{}.u32(1).u32(1).u8(uint8(service.KindWrite)).u64(0).t(t3).blob(data)},
	} {
		t.Run(c.op.String(), func(t *testing.T) {
			svc := newServiceArray(t)
			rt := rawConn(t, NewServiceServer(svc))
			if resp := rt(raw{}.u8(uint8(OpIdentify)).u32(CurrentVersion)); resp[0] != StatusOK {
				t.Fatalf("handshake refused: % x", resp)
			}
			call := func(req raw) []byte { return rt(append(raw{}.u64(7), req...))[8:] }
			// Two versions of the block LPA and of volume a's page 0, so
			// every rollback has something to restore; volume a (id 1) is
			// attached, volume b (id 2) is not.
			for _, req := range []raw{
				raw{}.u8(uint8(OpWrite)).u64(lpa).t(t1).blob(page(nil, 1, 512)),
				raw{}.u8(uint8(OpWrite)).u64(lpa).t(t2).blob(page(nil, 2, 512)),
				raw{}.u8(uint8(OpVolCreate)).blob([]byte("a")).blob([]byte("k")).u64(16).i64(0).t(t1),
				raw{}.u8(uint8(OpVolCreate)).blob([]byte("b")).blob([]byte("k")).u64(16).i64(0).t(t1),
				raw{}.u8(uint8(OpVolAttach)).blob([]byte("a")).blob([]byte("k")).t(t1),
				raw{}.u8(uint8(OpBatch)).u32(1).u32(2).
					u8(uint8(service.KindWrite)).u64(0).t(t1).blob(page(nil, 3, 512)).
					u8(uint8(service.KindWrite)).u64(0).t(t2).blob(page(nil, 4, 512)),
			} {
				if resp := call(req); resp[0] != StatusOK {
					t.Fatalf("setup %v refused: % x", Op(req[0]), resp)
				}
			}
			// attached reports, per volume id, whether the connection holds
			// it: VolStats answers an unattached id with StatusAuth.
			attached := func() (out [3]bool) {
				for id := range out {
					out[id] = call(raw{}.u8(uint8(OpVolStats)).u32(uint32(id)))[0] == StatusOK
				}
				return out
			}
			stats, vols, att := svc.Array().StatsView(), svc.List(), attached()

			got := call(append(append(raw{}.u8(uint8(c.op)), c.req...), 0))
			want := raw{}.u8(StatusError).blob([]byte("almaproto: " + c.op.String() + ": 1 trailing payload bytes"))
			if !bytes.Equal(got, want) {
				t.Fatalf("refusal:\n got % x\nwant % x", got, want)
			}
			if now := svc.Array().StatsView(); now != stats {
				t.Errorf("device counters moved:\nbefore %+v\nafter  %+v", stats, now)
			}
			if now := svc.List(); !reflect.DeepEqual(now, vols) {
				t.Errorf("volume list moved:\nbefore %+v\nafter  %+v", vols, now)
			}
			if now := attached(); now != att {
				t.Errorf("attachments moved: before %v, after %v", att, now)
			}
		})
	}
}
