package almaproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"

	"almanac/internal/array"
	"almanac/internal/core"
	"almanac/internal/fault"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/obs"
	"almanac/internal/service"
	"almanac/internal/vclock"
)

func newDevice(t testing.TB) *core.TimeSSD {
	t.Helper()
	fc := flash.DefaultConfig()
	fc.Channels = 2
	fc.ChipsPerChannel = 1
	fc.BlocksPerPlane = 32
	fc.PagesPerBlock = 16
	fc.PageSize = 512
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0
	d, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// serveDevice fronts one device the one way a server is built: a 1-shard
// array under a volume service. The array's worker owns dev from here on;
// tests still reach into it between commands (to arm a fault plan, to
// check invariants), which the command round trips order.
func serveDevice(t testing.TB, dev *core.TimeSSD) *Server {
	t.Helper()
	arr, err := array.Assemble([]*core.TimeSSD{dev})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { arr.Close() })
	return NewServiceServer(service.New(arr))
}

// pipePair wires a client to a server over an in-memory duplex pipe.
func pipePair(t testing.TB) (*Client, *core.TimeSSD) {
	t.Helper()
	dev := newDevice(t)
	srv := serveDevice(t, dev)
	cliEnd, srvEnd := net.Pipe()
	go srv.ServeOne(srvEnd)
	c := NewClient(cliEnd)
	t.Cleanup(func() { c.Close(); srvEnd.Close() })
	return c, dev
}

func page(c *Client, b byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestIdentify(t *testing.T) {
	c, dev := pipePair(t)
	id, err := c.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if id.PageSize != dev.PageSize() || id.LogicalPages != dev.LogicalPages() || id.Channels != 2 {
		t.Fatalf("identity mismatch: %+v", id)
	}
}

func TestReadWriteTrimOverWire(t *testing.T) {
	c, dev := pipePair(t)
	ps := dev.PageSize()
	done, err := c.Write(7, page(c, 0xaa, ps), vclock.Time(vclock.Second))
	if err != nil {
		t.Fatal(err)
	}
	if done <= vclock.Time(vclock.Second) {
		t.Fatal("write charged no device time")
	}
	data, done2, err := c.Read(7, done)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, page(c, 0xaa, ps)) {
		t.Fatal("wire round trip corrupted data")
	}
	if _, err := c.Trim(7, done2); err != nil {
		t.Fatal(err)
	}
	data, _, err = c.Read(7, done2.Add(vclock.Second))
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0 {
		t.Fatal("trim not visible over wire")
	}
}

func TestQueriesOverWire(t *testing.T) {
	c, dev := pipePair(t)
	ps := dev.PageSize()
	for seq := 0; seq < 3; seq++ {
		at := vclock.Time((seq + 1) * int(vclock.Hour))
		if _, err := c.Write(3, page(c, byte(seq+1), ps), at); err != nil {
			t.Fatal(err)
		}
	}
	now := vclock.Time(4 * vclock.Hour)

	all, _, err := c.AddrQueryAll(3, 1, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || len(all[0].Versions) != 3 {
		t.Fatalf("AddrQueryAll: %+v", all)
	}
	if !all[0].Versions[0].Live || all[0].Versions[0].Data[0] != 3 {
		t.Fatal("newest version wrong over wire")
	}

	at25 := vclock.Time(2*vclock.Hour + 30*vclock.Minute)
	q, _, err := c.AddrQuery(3, 1, at25, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(q[0].Versions) != 1 || q[0].Versions[0].Data[0] != 2 {
		t.Fatal("AddrQuery(t) wrong over wire")
	}

	rq, _, err := c.AddrQueryRange(3, 1, vclock.Time(vclock.Hour), vclock.Time(2*vclock.Hour), now)
	if err != nil {
		t.Fatal(err)
	}
	if len(rq[0].Versions) != 2 {
		t.Fatalf("AddrQueryRange returned %d versions", len(rq[0].Versions))
	}

	recs, _, err := c.TimeQuery(vclock.Time(2*vclock.Hour+1), now)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LPA != 3 || len(recs[0].Times) != 1 {
		t.Fatalf("TimeQuery: %+v", recs)
	}

	recs, _, err = c.TimeQueryRange(0, now, now)
	if err != nil || len(recs) != 1 || len(recs[0].Times) != 3 {
		t.Fatalf("TimeQueryRange: %v %+v", err, recs)
	}

	recs, _, err = c.TimeQueryAll(now)
	if err != nil || len(recs) != 1 {
		t.Fatalf("TimeQueryAll: %v %+v", err, recs)
	}
}

func TestRollBackOverWire(t *testing.T) {
	c, dev := pipePair(t)
	ps := dev.PageSize()
	c.Write(1, page(c, 1, ps), vclock.Time(vclock.Hour))
	c.Write(1, page(c, 2, ps), vclock.Time(2*vclock.Hour))
	changed, done, err := c.RollBack(1, 1, vclock.Time(vclock.Hour+1), vclock.Time(3*vclock.Hour))
	if err != nil || changed != 1 {
		t.Fatalf("rollback: %v changed=%d", err, changed)
	}
	data, _, _ := c.Read(1, done)
	if data[0] != 1 {
		t.Fatal("rollback over wire did not restore v1")
	}

	lpas := []uint64{1}
	changed, _, err = c.RollBackParallel(lpas, 2, vclock.Time(2*vclock.Hour+1), done.Add(vclock.Second))
	if err != nil || changed != 1 {
		t.Fatalf("parallel rollback: %v changed=%d", err, changed)
	}
}

func TestStatsOverWire(t *testing.T) {
	c, dev := pipePair(t)
	c.Write(9, page(c, 5, dev.PageSize()), vclock.Time(vclock.Second))
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.HostPageWrites != 1 || st.FlashPrograms < 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRemoteErrors(t *testing.T) {
	c, dev := pipePair(t)
	// Out-of-range LPA surfaces as a RemoteError, not a broken connection.
	_, _, err := c.Read(uint64(dev.LogicalPages())+10, 0)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	// The connection is still usable afterwards.
	if _, err := c.Write(0, page(c, 1, dev.PageSize()), vclock.Time(vclock.Second)); err != nil {
		t.Fatalf("connection dead after remote error: %v", err)
	}
}

func TestTCPServer(t *testing.T) {
	dev := newDevice(t)
	srv := serveDevice(t, dev)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	// Two concurrent clients share the device.
	c1, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	ps := dev.PageSize()
	if _, err := c1.Write(4, page(c1, 0x11, ps), vclock.Time(vclock.Second)); err != nil {
		t.Fatal(err)
	}
	data, _, err := c2.Read(4, vclock.Time(2*vclock.Second))
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0x11 {
		t.Fatal("clients do not share device state")
	}
}

// TestWireFuzz throws random garbage frames at the dispatcher and at the
// handshake: neither may panic or accept garbage. The dispatcher answers
// every frame, with an error unless it is a real command, and the
// handshake accepts only an Identify announcing v4 or later and refuses
// everything else with an error naming v4.
func TestWireFuzz(t *testing.T) {
	dev := newDevice(t)
	srv := serveDevice(t, dev)
	rng := rand.New(rand.NewSource(11))
	dispatch := dispatcher(srv)
	for i := 0; i < 2000; i++ {
		n := rng.Intn(64)
		body := make([]byte, n)
		rng.Read(body)
		hs, ok := srv.handshake(body)
		valid := n == 5 && Op(body[0]) == OpIdentify && binary.LittleEndian.Uint32(body[1:]) >= CurrentVersion
		if ok != valid || len(hs) == 0 || (hs[0] == StatusOK) != valid {
			t.Fatalf("fuzz %d: handshake on % x: accepted %v, response % x", i, body, ok, hs)
		}
		if msg := string((&dec{b: hs, pos: 1}).bytes()); !valid && !strings.Contains(msg, "v4") {
			t.Fatalf("fuzz %d: handshake refusal does not name v4: %q", i, msg)
		}
		resp := dispatch(body)
		if len(resp) == 0 {
			t.Fatalf("fuzz %d: empty response", i)
		}
		if resp[0] == 0 {
			// A random body that parses cleanly must at least be a real
			// opcode with fully-consumed payload; spot-check legality.
			if n == 0 || Op(body[0]) > OpBatch || Op(body[0]) == 0 {
				t.Fatalf("fuzz %d: garbage accepted: % x", i, body)
			}
		}
	}
	// The device must still be coherent after the fuzzing session.
	if err := dev.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, make([]byte, maxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatal("oversize frame accepted")
	}
	// A lying length prefix is rejected.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("absurd frame length accepted: %v", err)
	}
}

// TestCountersRoundTrip fills every obs.Counters field with a distinct
// value. The first 20 fields, the simulated-device counters, cross the
// wire as i64s in declaration order; the retired host-side RefCache*
// fields after them stay off the wire.
func TestCountersRoundTrip(t *testing.T) {
	var c obs.Counters
	fields := reflect.ValueOf(&c).Elem()
	for i := 0; i < fields.NumField(); i++ {
		fields.Field(i).SetInt(int64(i+1) * 0x0101)
	}
	var e enc
	encCounters(&e, c)
	if len(e.b) != 20*8 {
		t.Fatalf("%d payload bytes, want 20 counters", len(e.b))
	}
	for i := 0; i < 20; i++ {
		if v := int64(binary.LittleEndian.Uint64(e.b[8*i:])); v != fields.Field(i).Int() {
			t.Fatalf("payload slot %d = %#x, want %s (%#x)", i, v, fields.Type().Field(i).Name, fields.Field(i).Int())
		}
	}
	d := dec{b: e.b}
	got := decCounters(&d)
	if d.err != nil || d.pos != len(e.b) {
		t.Fatalf("decode: err=%v, %d bytes left", d.err, len(e.b)-d.pos)
	}
	want := c
	want.RefCacheHits, want.RefCacheMisses, want.RefCacheEvictions = 0, 0, 0
	if got != want {
		t.Fatalf("counters round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "Read" || Op(200).String() == "" {
		t.Fatal("op names broken")
	}
}

// armPlan parses a fault plan and arms it on the device.
func armPlan(t *testing.T, dev *core.TimeSSD, text string) {
	t.Helper()
	plan, err := fault.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetFaults(inj)
}

func TestTypedRemoteErrors(t *testing.T) {
	c, dev := pipePair(t)
	ps := dev.PageSize()
	if _, err := c.Write(3, page(c, 7, ps), vclock.Time(vclock.Second)); err != nil {
		t.Fatal(err)
	}

	// An uncorrectable read crosses the wire as StatusUncorrectable and
	// unwraps to the fault sentinel, exactly as in-process.
	armPlan(t, dev, "seed 1\nread uncorrectable count=1\n")
	_, _, err := c.Read(3, vclock.Time(2*vclock.Second))
	if !errors.Is(err, fault.ErrUncorrectable) {
		t.Fatalf("want fault.ErrUncorrectable over the wire, got %v", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != StatusUncorrectable {
		t.Fatalf("want RemoteError code %d, got %+v", StatusUncorrectable, re)
	}
	// The rule is exhausted (count=1); the connection and device survive.
	if _, _, err := c.Read(3, vclock.Time(3*vclock.Second)); err != nil {
		t.Fatalf("read after exhausted fault rule: %v", err)
	}

	// A power cut kills the device mid-plan; every later command reports
	// StatusPowerCut but the protocol stream itself stays framed.
	armPlan(t, dev, "seed 1\npowercut at=1h\n")
	if _, err := c.Write(3, page(c, 8, ps), vclock.Time(2*vclock.Hour)); !errors.Is(err, fault.ErrPowerCut) {
		t.Fatalf("want fault.ErrPowerCut, got %v", err)
	}
	_, _, err = c.Read(3, vclock.Time(3*vclock.Hour))
	if !errors.As(err, &re) || re.Code != StatusPowerCut || !errors.Is(err, fault.ErrPowerCut) {
		t.Fatalf("dead device: want power-cut status, got %v", err)
	}
}
