package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"almanac/internal/almaproto"
	"almanac/internal/array"
	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/obs"
	"almanac/internal/service"
	"almanac/internal/vclock"
)

const (
	servedShards = 4
	frameOps     = 16 // ops per OpBatch frame on served-pipelined, 8 W : 8 R
	frameWindow  = 8  // frames in flight on served-pipelined
	// barrierFrames is how often the frame driver lets its window empty.
	barrierFrames = 1024
	volName       = "bench"
	volKey        = "key"

	// Host ops are stamped opGap of virtual time apart. A shard programs
	// its host frontier on one channel at a time (750 µs a page), so this
	// is about a fifth of what the modelled array sustains: virtual
	// response time is service time plus GC stalls, not a growing queue.
	opGap = vclock.Millisecond
	epoch = vclock.Time(vclock.Hour) // virtual time of the first prefill write
)

// servedGeometry is the per-shard device of the served workloads: the
// default 4 ch × 2 chips × 64 pages × 4 KiB with blocks blocks per plane.
func servedGeometry(blocks int) core.Config {
	fc := flash.DefaultConfig()
	fc.BlocksPerPlane = blocks
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0
	return cfg
}

// servedStack is the stack exactly as `almanacd -shards 4 -volumes …`
// assembles it, plus one client connection.
type servedStack struct {
	arr  *array.Array
	vol  *service.Volume
	srv  *almaproto.Server
	cli  *almaproto.Client
	id   uint32
	done chan error // Serve's return
}

// newServedStack builds array → service → server → listener → client and
// provisions the volume the way the daemon's -volumes flag does.
// volPages 0 means half the array's logical pages. pipe chooses the
// transport: loopback TCP for the workloads, net.Pipe for one ladder
// rung.
func newServedStack(shards int, shard core.Config, volPages uint64, obsOn bool, pipe bool) (*servedStack, error) {
	arr, err := array.New(array.Config{Shards: shards, Shard: shard})
	if err != nil {
		return nil, err
	}
	if volPages == 0 {
		volPages = uint64(arr.LogicalPages()) / 2
	}
	s := &servedStack{arr: arr, done: make(chan error, 1)}
	svc := service.New(arr)
	svc.SetObsEnabled(obsOn)
	if s.vol, err = svc.Create(volName, volKey, volPages, 0, 0); err != nil {
		_ = arr.Close() // Close on a live array cannot fail
		return nil, err
	}
	s.srv = almaproto.NewServiceServer(svc)
	if pipe {
		cliEnd, srvEnd := net.Pipe()
		go func() {
			s.srv.ServeOne(srvEnd)
			s.done <- nil
		}()
		s.cli = almaproto.NewClient(cliEnd)
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = arr.Close() // Close on a live array cannot fail
			return nil, err
		}
		go func() { s.done <- s.srv.Serve(ln) }()
		if s.cli, err = almaproto.Dial(ln.Addr().String()); err != nil {
			s.close()
			return nil, err
		}
	}
	info, err := s.cli.VolAttach(volName, volKey, epoch)
	if err != nil {
		s.close()
		return nil, err
	}
	s.id = info.ID
	return s, nil
}

// close tears the stack down and waits for every goroutine it started.
func (s *servedStack) close() {
	if s.cli != nil {
		_ = s.cli.Close() // the connection is being abandoned; nothing to report
	}
	if err := s.srv.Shutdown(); err != nil && !errors.Is(err, net.ErrClosed) {
		fmt.Fprintln(os.Stderr, "benchmark: server shutdown:", err)
	}
	<-s.done
	_ = s.arr.Close() // Close on a live array cannot fail
}

// servedInput is the generated input of one served repetition or ladder
// rung: content, the stream replayed in set-up, and the timed stream, in
// that order on one shadow model.
type servedInput struct {
	c     *corpus
	pages uint64
	setup []servedOp
	timed []servedOp
	// redraws is how many draws of the timed stream the hazard rule rejected.
	redraws int
}

// newServedInput generates a repetition's input. The set-up stream is a
// prefill (version 0 of every volume page, so every later read hits live
// data) followed by aging: 1.5 Zipf writes a page on top of the prefill.
// That is enough for the array to have consumed its raw capacity, so
// garbage collection, delta compression and window shedding are in steady
// state before the first timed op instead of starting part-way through the
// timed phase, at a point that moves with the seed. Set-up always runs as
// 16-op frames 8 deep, whatever shape the timed stream has.
func newServedInput(seed uint64, pageSize int, volPages uint64, nOps, perFrame, window int) *servedInput {
	g := newServedGen(seed, volPages)
	in := &servedInput{c: newCorpus(seed, pageSize), pages: volPages}
	for lpa := uint64(0); lpa < volPages; lpa++ {
		in.setup = append(in.setup, servedOp{lpa: uint32(lpa), write: true})
	}
	in.setup = append(in.setup, g.writes(3*int(volPages)/2)...)
	in.timed = g.stream(nOps, perFrame, window)
	in.redraws = g.redraws
	return in
}

// batcher is the narrowest view of a transport the frame driver needs:
// the wire client for the workloads, direct Volume or Array calls for the
// ladder's lower rungs. A slot names one of the window in-flight frames;
// the driver reuses a slot only after waiting on it, and keeps the ops
// slice it passed untouched until then.
type batcher interface {
	submit(slot int, ops []service.BatchOp) error
	wait(slot int) ([]service.BatchResult, error)
}

type wireBatcher struct {
	cli     *almaproto.Client
	id      uint32
	pending []*almaproto.PendingBatch // by slot
}

func newWireBatcher(st *servedStack) *wireBatcher {
	return &wireBatcher{cli: st.cli, id: st.id, pending: make([]*almaproto.PendingBatch, frameWindow)}
}

func (w *wireBatcher) submit(slot int, ops []service.BatchOp) (err error) {
	w.pending[slot], err = w.cli.SubmitBatch(w.id, ops)
	return err
}

func (w *wireBatcher) wait(slot int) ([]service.BatchResult, error) {
	return w.pending[slot].Wait()
}

// frame is one submitted, not yet collected frame.
type frame struct {
	first int // index of its first op in the stream
	n     int
	t0    time.Time
	span  int
}

// frameDriver is the closed-loop client of both served workloads and of
// the ladder's upper rungs: one goroutine keeps window frames of perFrame
// ops in flight, waits for the oldest before sending the next, and checks
// every completion against the shadow model the stream carries. Frame k
// uses slot k mod window.
//
// Every barrierFrames frames the driver lets the window empty before it
// sends the next frame, as a host does at a flush barrier. With nothing
// in flight the array's published retention window is exact, and that is
// where virt_retention_s is sampled.
//
// Virtual time is closed-loop too. Each op is stamped opGap after the
// previous one, or at the virtual completion of the newest collected
// frame if that is later: a host cannot issue from the past of a device
// it has already heard from. A GC stall therefore delays the ops in
// flight once; it does not leave a backlog that every later op queues
// behind, which would make virtual response time a function of where in
// the run the stalls happened to fall.
type frameDriver struct {
	b     batcher
	c     *corpus
	clock vclock.Time                    // stamp of the next op
	ws    func() vclock.Time             // retention window start, or nil to skip sampling
	tr    *tracer                        // nil when tracing is off
	root  int                            // parent span
	ops   [frameWindow][]service.BatchOp // by slot
}

// drive replays stream and accumulates into r. A failed op is counted,
// never fatal; a transport error is. A read that comes back with the wrong
// bytes is noted in r.torn for recheck to settle.
func (d *frameDriver) drive(stream []servedOp, perFrame, window int, r *repResult) error {
	pending := make([]frame, 0, window)
	r.latNS = make([]int64, 0, len(stream)/perFrame+1)
	collect := func() error {
		f := pending[0]
		pending = pending[:copy(pending, pending[1:])]
		slot := f.first / perFrame % window
		res, err := d.b.wait(slot)
		r.latNS = append(r.latNS, time.Since(f.t0).Nanoseconds())
		if d.tr != nil {
			d.tr.end(f.span)
		}
		if err != nil {
			return err
		}
		for i, o := range stream[f.first : f.first+f.n] {
			if res[i].Err != nil {
				r.failed++
				continue
			}
			if !o.write && !bytes.Equal(res[i].Data, d.c.page(uint64(o.lpa), int(o.ver))) {
				r.torn = append(r.torn, f.first+i)
			}
			r.virtRespNS += int64(res[i].Done.Sub(d.ops[slot][i].At))
			r.virtOps++
			if res[i].Done > d.clock {
				d.clock = res[i].Done
			}
		}
		return nil
	}
	for first := 0; first < len(stream); first += perFrame {
		n := min(perFrame, len(stream)-first)
		slot := first / perFrame % window
		batch := d.ops[slot][:0]
		for _, o := range stream[first : first+n] {
			op := service.BatchOp{Kind: service.KindRead, LPA: uint64(o.lpa), At: d.clock}
			if o.write {
				op.Kind, op.Data = service.KindWrite, d.c.page(uint64(o.lpa), int(o.ver))
			}
			batch = append(batch, op)
			d.clock = d.clock.Add(opGap)
		}
		d.ops[slot] = batch
		if first/perFrame%barrierFrames == 0 {
			for len(pending) > 0 {
				if err := collect(); err != nil {
					return err
				}
			}
			if d.ws != nil {
				r.sampleRetention(d.clock, d.ws())
			}
		}
		f := frame{first: first, n: n, t0: time.Now()}
		if d.tr != nil {
			f.span = d.tr.begin(spanName(perFrame, stream[first].write), d.root, uint64(first/perFrame))
		}
		if err := d.b.submit(slot, batch); err != nil {
			return err
		}
		if pending = append(pending, f); len(pending) >= window {
			if err := collect(); err != nil {
				return err
			}
		}
	}
	for len(pending) > 0 {
		if err := collect(); err != nil {
			return err
		}
	}
	r.attempted += len(stream)
	return nil
}

// recheck settles the reads drive noted in r.torn, after the timed phase
// and after every counter has been read, so that it moves no metric. With
// nothing in flight it reads each such LPA again, alone, and compares the
// answer with the newest version the stream wrote there.
//
// A pipelined read's result aliases the shard's flash arena until the whole
// frame is complete (array.Cmd.Out, copied out by BatchRun.Complete), and
// the shard worker meanwhile runs the writes queued behind it; when their
// garbage collection erases and re-programs the block under the result, the
// client gets a page of some other lineage although the device holds the
// right one: a torn read, about one in a million ops on served-pipelined.
// If the second read is right the first was torn: it is counted in
// tornReads (array.torn_reads), not as a failed op, as a host that
// checksums its blocks end to end would read again and carry on. If the
// second read is wrong too the device lost the data, and the op failed.
func (d *frameDriver) recheck(stream []servedOp, r *repResult) error {
	for _, idx := range r.torn {
		o := stream[idx]
		for _, later := range stream[idx+1:] {
			if later.write && later.lpa == o.lpa {
				o.ver = later.ver
			}
		}
		d.ops[0] = append(d.ops[0][:0], service.BatchOp{Kind: service.KindRead, LPA: uint64(o.lpa), At: d.clock})
		if err := d.b.submit(0, d.ops[0]); err != nil {
			return err
		}
		res, err := d.b.wait(0)
		if err != nil {
			return err
		}
		if res[0].Err != nil || !bytes.Equal(res[0].Data, d.c.page(uint64(o.lpa), int(o.ver))) {
			r.failed++
		} else {
			r.tornReads++
		}
	}
	r.torn = nil
	return nil
}

// setUp replays the set-up stream, whose results are checked like any
// other: a wrong read in set-up is a harness error, since nothing is
// being measured yet.
func (d *frameDriver) setUp(in *servedInput) error {
	var r repResult
	if err := d.drive(in.setup, frameOps, frameWindow, &r); err != nil {
		return err
	}
	if r.failed > 0 || len(r.torn) > 0 {
		return fmt.Errorf("%d of %d set-up ops failed or returned wrong data", r.failed+len(r.torn), r.attempted)
	}
	return nil
}

// spanName names a frame's span: multi-op frames are "frame"; the
// one-op frames of served-qd1 are named by kind, so the traced run can
// report read and write latency apart.
func spanName(perFrame int, write bool) string {
	switch {
	case perFrame > 1:
		return "frame"
	case write:
		return "write"
	}
	return "read"
}

// runServed is one repetition of served-pipelined (perFrame 16, window 8)
// or served-qd1 (1, 1): fresh stack, prefill and aging, then the timed
// stream.
func runServed(e *env, nOps, perFrame, window int) (*repResult, error) {
	t0 := time.Now()
	st, err := newServedStack(servedShards, servedGeometry(e.sz.servedBlocks), 0, !e.obsOff, false)
	if err != nil {
		return nil, err
	}
	defer st.close()
	in := newServedInput(e.seed, st.arr.PageSize(), st.vol.Pages(), e.scaled(nOps, perFrame), perFrame, window)
	d := &frameDriver{b: newWireBatcher(st), c: in.c, clock: epoch, ws: st.arr.RetentionWindowStart, tr: e.tr, root: e.parent}
	if err := d.setUp(in); err != nil {
		return nil, err
	}
	r := &repResult{setupNS: time.Since(t0).Nanoseconds()}
	before := st.arr.ObsSnapshot().C
	wireBefore := st.srv.WireSnapshot()
	batchBefore := st.vol.Snapshot().Ops[obs.VolBatch.String()].Wall

	w := startWatch()
	err = d.drive(in.timed, perFrame, window, r)
	w.stop(r)
	if err != nil {
		return nil, err
	}

	r.virtEnd = d.clock
	r.total = st.arr.ObsSnapshot().C
	r.timed = subCounters(r.total, before)
	r.windowStart = st.arr.RetentionWindowStart()
	wire := st.srv.WireSnapshot()
	batch := st.vol.Snapshot().Ops[obs.VolBatch.String()].Wall
	batch.Sub(batchBefore)
	var maxShard, sumShard int64
	for i := 0; i < st.arr.Shards(); i++ {
		c := st.arr.ShardSnapshot(i).C
		n := c.HostPageReads + c.HostPageWrites
		sumShard += n
		maxShard = max(maxShard, n)
	}
	r.layer = map[string]float64{
		"gen.redraws":                 float64(in.redraws),
		"array.shard_imbalance":       ratio(maxShard*int64(st.arr.Shards()), sumShard),
		"service.batch_wall_p50_us":   float64(batch.QuantileNS(0.50)) / 1e3,
		"service.batch_wall_p99_us":   float64(batch.QuantileNS(0.99)) / 1e3,
		"almaproto.frames_in":         float64(wire.FramesIn - wireBefore.FramesIn),
		"almaproto.wire_bytes_per_op": ratio(wire.BytesIn-wireBefore.BytesIn+wire.BytesOut-wireBefore.BytesOut, int64(len(in.timed))),
		"almaproto.frames_per_write":  ratio(wire.FramesOut-wireBefore.FramesOut, wire.Writes-wireBefore.Writes),
	}
	if e.tr != nil && perFrame == 1 {
		r.layer["almaproto.qd1_read_p50_us"] = e.tr.p50us("read", e.parent)
		r.layer["almaproto.qd1_write_p50_us"] = e.tr.p50us("write", e.parent)
	}
	return r, d.recheck(in.timed, r)
}
