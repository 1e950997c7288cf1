package almaproto

import (
	"math/rand"
	"net"
	"sort"
	"testing"
	"time"

	"almanac/internal/array"
	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/service"
	"almanac/internal/vclock"
)

// BenchmarkServiceOpsPerSec measures end-to-end throughput of the v4
// stack: page writes flow from a pipelined client through the tagged
// transport over an in-memory pipe, into the volume service, and onto a
// 4-shard array's worker queues. Ops ride multi-op batch frames with several batches in
// flight, so the number reflects the pipelined path almanacd serves — not
// a request/response ping-pong.
func BenchmarkServiceOpsPerSec(b *testing.B) {
	serviceOpsBody(b, func(_ *testing.B, srv *Server) (*Client, func()) {
		cliEnd, srvEnd := net.Pipe()
		go srv.ServeOne(srvEnd)
		c := NewClient(cliEnd)
		return c, func() {
			_ = c.Close()
			_ = srvEnd.Close()
		}
	})
}

// BenchmarkServiceOpsPerSecTCP is BenchmarkServiceOpsPerSec over a real
// loopback TCP socket. net.Pipe is a synchronous rendezvous — every Write blocks until
// the peer reads, which hides what write coalescing buys on a socket
// (fewer syscalls, fewer wakeups). This variant puts the kernel back in
// the path so the coalesced flush shows up.
func BenchmarkServiceOpsPerSecTCP(b *testing.B) {
	serviceOpsBody(b, dialLoopback)
}

// dialLoopback serves srv on one accepted loopback TCP connection and
// dials it.
func dialLoopback(b *testing.B, srv *Server) (*Client, func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		srv.ServeOne(conn)
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		_ = ln.Close()
		b.Fatal(err)
	}
	return c, func() {
		_ = c.Close()
		_ = ln.Close()
	}
}

// benchVolPages is the size of the volume benchVolume attaches.
const benchVolPages = 2048

// benchVolume builds the served stack — a 4-shard array, the volume
// service, a server — connects a client to it over the transport under
// test, and creates and attaches a volume at virtual time one hour.
// Everything is torn down when the benchmark ends.
func benchVolume(b *testing.B, connect func(*testing.B, *Server) (*Client, func())) (c *Client, volID uint32, pageSize int) {
	fc := flash.DefaultConfig()
	fc.BlocksPerPlane = 128
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0
	arr, err := array.New(array.Config{Shards: 4, Shard: cfg})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = arr.Close() })
	c, cleanup := connect(b, NewServiceServer(service.New(arr)))
	b.Cleanup(cleanup)
	t0 := vclock.Time(vclock.Hour)
	if _, err := c.VolCreate("bench", "key", benchVolPages, 0, t0); err != nil {
		b.Fatal(err)
	}
	info, err := c.VolAttach("bench", "key", t0)
	if err != nil {
		b.Fatal(err)
	}
	return c, info.ID, arr.PageSize()
}

// BenchmarkServedQD1TCP is benchmark/'s served-qd1 as a micro: one op per
// OpBatch frame, one frame in flight, over loopback TCP — alternately a
// 4 KiB write and a read of the page just written. Nothing batches or
// coalesces, so ns/op is the cost of the path itself: syscalls, goroutine
// hand-offs and wake-ups around ~2 µs of device work. p50 and p95 of the
// round trip are reported beside the mean because the hand-off cost is
// bimodal (a cold wake-up is several times a warm one).
func BenchmarkServedQD1TCP(b *testing.B) {
	c, volID, pageSize := benchVolume(b, dialLoopback)
	data := benchPage(1, pageSize)
	at := vclock.Time(vclock.Hour).Add(vclock.Second)
	ops := make([]service.BatchOp, 1)
	lat := make([]int64, 0, b.N)
	b.SetBytes(int64(pageSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lpa := uint64(i/2) % benchVolPages
		if i%2 == 0 {
			ops[0] = service.BatchOp{Kind: service.KindWrite, LPA: lpa, Data: data, At: at}
		} else {
			ops[0] = service.BatchOp{Kind: service.KindRead, LPA: lpa, At: at}
		}
		at = at.Add(vclock.Millisecond)
		t0 := time.Now()
		pb, err := c.SubmitBatch(volID, ops)
		if err != nil {
			b.Fatal(err)
		}
		res, err := pb.Wait()
		if err != nil {
			b.Fatal(err)
		}
		if res[0].Err != nil {
			b.Fatal(res[0].Err)
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2])/1e3, "p50-µs")
	b.ReportMetric(float64(lat[len(lat)*95/100])/1e3, "p95-µs")
}

// serviceOpsBody is the shared benchmark body: connect builds a client
// over the transport under test against the given server and returns a
// cleanup.
func serviceOpsBody(b *testing.B, connect func(*testing.B, *Server) (*Client, func())) {
	c, volID, pageSize := benchVolume(b, connect)
	const (
		batchOps = 16 // ops per batch frame
		inflight = 8  // batch frames kept in flight
	)
	data := benchPage(1, pageSize)
	ops := make([]service.BatchOp, batchOps)
	var pending []*PendingBatch
	drainOne := func() {
		results, err := pending[0].Wait()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		pending = pending[1:]
	}

	at := vclock.Time(vclock.Hour).Add(vclock.Second)
	seq := uint64(0)
	b.SetBytes(int64(pageSize))
	b.ResetTimer()
	for n := 0; n < b.N; {
		k := batchOps
		if rem := b.N - n; k > rem {
			k = rem
		}
		for i := 0; i < k; i++ {
			ops[i] = service.BatchOp{Kind: service.KindWrite, LPA: seq % benchVolPages, Data: data, At: at}
			seq++
			at = at.Add(vclock.Millisecond)
		}
		pb, err := c.SubmitBatch(volID, ops[:k])
		if err != nil {
			b.Fatal(err)
		}
		pending = append(pending, pb)
		if len(pending) >= inflight {
			drainOne()
		}
		n += k
	}
	for len(pending) > 0 {
		drainOne()
	}
}

// benchPage builds a dense compressible page (small-alphabet bytes).
func benchPage(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(rng.Intn(8)) // compressible
	}
	return p
}
