package almaproto

import (
	"math/rand"
	"net"
	"testing"

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
	serviceOpsBody(b, func(srv *Server) (*Client, func()) {
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
	serviceOpsBody(b, func(srv *Server) (*Client, func()) {
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
	})
}

// serviceOpsBody is the shared benchmark body: connect builds a client
// over the transport under test against the given server and returns a
// cleanup.
func serviceOpsBody(b *testing.B, connect func(*Server) (*Client, func())) {
	fc := flash.DefaultConfig()
	fc.BlocksPerPlane = 128
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0
	arr, err := array.New(array.Config{Shards: 4, Shard: cfg})
	if err != nil {
		b.Fatal(err)
	}
	defer arr.Close()
	svc := service.New(arr)
	srv := NewServiceServer(svc)
	c, cleanup := connect(srv)
	defer cleanup()

	const volPages = 2048
	t0 := vclock.Time(vclock.Hour)
	if _, err := c.VolCreate("bench", "key", volPages, 0, t0); err != nil {
		b.Fatal(err)
	}
	info, err := c.VolAttach("bench", "key", t0)
	if err != nil {
		b.Fatal(err)
	}

	const (
		batchOps = 16 // ops per batch frame
		inflight = 8  // batch frames kept in flight
	)
	data := benchPage(1, arr.PageSize())
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

	at := t0.Add(vclock.Second)
	seq := uint64(0)
	b.SetBytes(int64(arr.PageSize()))
	b.ResetTimer()
	for n := 0; n < b.N; {
		k := batchOps
		if rem := b.N - n; k > rem {
			k = rem
		}
		for i := 0; i < k; i++ {
			ops[i] = service.BatchOp{Kind: service.KindWrite, LPA: seq % volPages, Data: data, At: at}
			seq++
			at = at.Add(vclock.Millisecond)
		}
		pb, err := c.SubmitBatch(info.ID, ops[:k])
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
