package almaproto

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"

	"almanac/internal/array"
	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/service"
	"almanac/internal/vclock"
)

// newTestArray builds a small 4-shard array for server tests.
func newTestArray(t testing.TB) *array.Array {
	t.Helper()
	fc := flash.DefaultConfig()
	fc.Channels = 2
	fc.ChipsPerChannel = 1
	fc.BlocksPerPlane = 32
	fc.PagesPerBlock = 16
	fc.PageSize = 512
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0
	a, err := array.New(array.Config{Shards: 4, Shard: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// TestConcurrentClients hammers both server variants with 8 concurrent
// connections issuing mixed reads, writes, trims, queries and rollbacks.
// Each client owns a disjoint LPA stripe so results are assertable; the
// test's real work happens under `go test -race`, where any unsynchronised
// device access in the server, backend, or array worker path is fatal.
func TestConcurrentClients(t *testing.T) {
	const (
		clients   = 8
		pagesEach = 8
	)
	h := func(n int) vclock.Time { return vclock.Time(n) * vclock.Time(vclock.Hour) }

	variants := []struct {
		name  string
		serve func(t *testing.T) (*Server, func() error)
	}{
		{"single-device", func(t *testing.T) (*Server, func() error) {
			dev := newDevice(t)
			return serveDevice(t, dev), dev.CheckInvariants
		}},
		{"array", func(t *testing.T) (*Server, func() error) {
			arr := newTestArray(t)
			return NewServiceServer(service.New(arr)), arr.CheckInvariants
		}},
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			srv, check := v.serve(t)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			defer srv.Close()

			var wg sync.WaitGroup
			errc := make(chan error, clients)
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					if err := concurrentClientRun(ln.Addr().String(), uint64(g*pagesEach), pagesEach, h); err != nil {
						errc <- fmt.Errorf("client %d: %w", g, err)
					}
				}(g)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}
			if err := check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// concurrentClientRun is one client's workload over its own LPA range
// [base, base+n): two write generations, point reads, address/time queries,
// a trim, and a rollback — every TimeKits family, all while 7 other clients
// do the same elsewhere on the device.
func concurrentClientRun(addr string, base uint64, n int, h func(int) vclock.Time) error {
	c, err := Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()

	id, err := c.Identify()
	if err != nil {
		return err
	}
	pg := func(b byte) []byte {
		p := make([]byte, id.PageSize)
		for i := range p {
			p[i] = b
		}
		return p
	}

	// Generation 1 at hour 1, generation 2 at hour 2 (all clients share
	// these virtual timestamps; the device must keep the stripes apart).
	for g := 1; g <= 2; g++ {
		for i := 0; i < n; i++ {
			lpa := base + uint64(i)
			if _, err := c.Write(lpa, pg(byte(64*g)+byte(lpa%64)), h(g)); err != nil {
				return fmt.Errorf("write g%d lpa %d: %w", g, lpa, err)
			}
		}
	}
	now := h(3)

	// Point reads see generation 2.
	for i := 0; i < n; i++ {
		lpa := base + uint64(i)
		data, _, err := c.Read(lpa, now)
		if err != nil {
			return fmt.Errorf("read lpa %d: %w", lpa, err)
		}
		if !bytes.Equal(data, pg(128+byte(lpa%64))) {
			return fmt.Errorf("lpa %d: read returned wrong generation", lpa)
		}
	}

	// AddrQuery at a time between the generations sees generation 1.
	q, _, err := c.AddrQuery(base, n, h(1).Add(vclock.Minute), now)
	if err != nil {
		return err
	}
	if len(q) != n {
		return fmt.Errorf("AddrQuery returned %d LPAs, want %d", len(q), n)
	}
	for _, pv := range q {
		if len(pv.Versions) != 1 || pv.Versions[0].Data[0] != 64+byte(pv.LPA%64) {
			return fmt.Errorf("lpa %d: AddrQuery(t) wrong version", pv.LPA)
		}
	}

	// TimeQuery since hour 2 includes this client's whole range (other
	// clients' pages may appear too — they share the timeline).
	recs, _, err := c.TimeQuery(h(2).Add(-vclock.Minute), now)
	if err != nil {
		return err
	}
	mine := 0
	for _, r := range recs {
		if r.LPA >= base && r.LPA < base+uint64(n) {
			mine++
		}
	}
	if mine != n {
		return fmt.Errorf("TimeQuery found %d of my %d pages", mine, n)
	}

	// Trim the last page, then roll the whole range back to generation 1.
	if _, err := c.Trim(base+uint64(n-1), now); err != nil {
		return err
	}
	changed, done, err := c.RollBack(base, n, h(1).Add(vclock.Minute), h(4))
	if err != nil {
		return err
	}
	if changed != n {
		return fmt.Errorf("rollback changed %d pages, want %d", changed, n)
	}
	for i := 0; i < n; i++ {
		lpa := base + uint64(i)
		data, _, err := c.Read(lpa, done.Add(vclock.Second))
		if err != nil {
			return err
		}
		if !bytes.Equal(data, pg(64+byte(lpa%64))) {
			return fmt.Errorf("lpa %d: rollback did not restore generation 1", lpa)
		}
	}

	// Stats and Identify stay serviceable throughout.
	if _, err := c.Stats(); err != nil {
		return err
	}
	return nil
}

// TestArrayServerWire checks the array-specific protocol surface: Identify
// advertises the shard topology and aggregate capacity, and OpRollBackAll
// reverts every shard to the shared timestamp.
func TestArrayServerWire(t *testing.T) {
	arr := newTestArray(t)
	srv := NewServiceServer(service.New(arr))
	cliEnd, srvEnd := net.Pipe()
	go srv.ServeOne(srvEnd)
	c := NewClient(cliEnd)
	t.Cleanup(func() { c.Close(); srvEnd.Close() })

	id, err := c.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if id.Shards != 4 || id.LogicalPages != arr.LogicalPages() || id.Channels != 4*2 {
		t.Fatalf("array identity: %+v", id)
	}

	h := func(n int) vclock.Time { return vclock.Time(n) * vclock.Time(vclock.Hour) }
	pg := func(b byte) []byte {
		p := make([]byte, id.PageSize)
		for i := range p {
			p[i] = b
		}
		return p
	}
	// One page per shard, two generations.
	for g := 1; g <= 2; g++ {
		for lpa := uint64(0); lpa < 4; lpa++ {
			if _, err := c.Write(lpa, pg(byte(64*g)+byte(lpa)), h(g)); err != nil {
				t.Fatal(err)
			}
		}
	}
	changed, done, err := c.RollBackAll(h(1).Add(vclock.Minute), h(3))
	if err != nil {
		t.Fatal(err)
	}
	if changed != 4 {
		t.Fatalf("RollBackAll changed %d pages, want 4", changed)
	}
	for lpa := uint64(0); lpa < 4; lpa++ {
		data, _, err := c.Read(lpa, done.Add(vclock.Second))
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != 64+byte(lpa) {
			t.Fatalf("lpa %d (shard %d): RollBackAll missed it", lpa, lpa%4)
		}
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// 8 host writes plus 4 pages re-written by the rollback restore.
	if st.HostPageWrites != 12 {
		t.Fatalf("aggregate stats over wire: %+v", st)
	}
}

// TestShutdownDrains verifies the graceful-drain contract: Shutdown returns
// only after in-flight frames have completed, and both idle and late
// clients observe a closed connection rather than a half-served one.
func TestShutdownDrains(t *testing.T) {
	dev := newDevice(t)
	srv := serveDevice(t, dev)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { srv.Serve(ln); close(serveDone) }()

	// An idle client sits in readFrame on the server side.
	idle, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := idle.Identify(); err != nil { // ensure the conn is registered
		t.Fatal(err)
	}

	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	<-serveDone

	// The device is safe to touch directly now — that is the whole point
	// of draining before the image save.
	if err := dev.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// New connections are refused after shutdown.
	if _, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}
