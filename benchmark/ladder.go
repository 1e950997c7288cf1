package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"almanac/internal/array"
	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/service"
	"almanac/internal/vclock"
)

// The ladder replays the head of a served-pipelined repetition's stream
// (ladderOps ops of it) at every layer boundary, through that layer's
// public functions only. A rung's ns_per_op minus the rung below is what
// the layer in between adds (self_ns_per_op). The single-device rungs (flash, ftl, core, array1)
// run one device with the four shards' total capacity, so the stream's
// address space and the capacity pressure are the same on every rung.
// From array4 up the work is concurrent: self there is wall time added,
// not CPU — compare cpu_ns_per_op for the CPU bill.
var rungNames = [...]string{"flash", "ftl", "core", "array1", "array4", "service", "pipe", "tcp"}

type rungResult struct {
	name         string
	ops, failed  int
	torn         int // torn reads, see frameDriver.recheck
	wallNS, cpuN int64
}

// pageDev is what the synchronous rungs drive.
type pageDev interface {
	Read(lpa uint64, at vclock.Time) ([]byte, vclock.Time, error)
	Write(lpa uint64, data []byte, at vclock.Time) (vclock.Time, error)
}

// flashLog is the trivial append log of the flash rung: an LPA→PPA table
// over a circular sequence of blocks, cleaning the oldest block (moving
// its live pages to the head) when free blocks run short. It exists to
// price flash.Array's Program/Read/Erase alone, with the least FTL that
// can absorb the stream.
type flashLog struct {
	arr        *flash.Array
	table      []flash.PPA
	head, tail int // block indices; blocks tail … head hold data
	used       int // pages programmed in the head block
	free       int // erased blocks not yet opened
}

func newFlashLog(fc flash.Config, lpas uint64) (*flashLog, error) {
	arr, err := flash.New(fc)
	if err != nil {
		return nil, err
	}
	l := &flashLog{arr: arr, table: make([]flash.PPA, lpas), free: fc.TotalBlocks() - 1}
	for i := range l.table {
		l.table[i] = flash.NullPPA
	}
	return l, nil
}

func (l *flashLog) Read(lpa uint64, at vclock.Time) ([]byte, vclock.Time, error) {
	data, _, done, err := l.arr.Read(l.table[lpa], at)
	return data, done, err
}

func (l *flashLog) Write(lpa uint64, data []byte, at vclock.Time) (vclock.Time, error) {
	cfg := l.arr.Config()
	for l.free < 2 {
		// Clean the oldest block: its live pages move to the head.
		victim := l.tail
		l.tail = (l.tail + 1) % cfg.TotalBlocks()
		for off := 0; off < cfg.PagesPerBlock; off++ {
			ppa := l.arr.AddrOf(victim, off)
			live, oob, done, err := l.arr.Read(ppa, at)
			if err != nil {
				return at, err
			}
			if l.table[oob.LPA] != ppa {
				continue
			}
			if at, err = l.program(oob.LPA, live, done); err != nil {
				return at, err
			}
		}
		//almalint:allow layering reason: the ladder's flash rung prices raw Program/Read/Erase under the least possible FTL; it is the one place the benchmark stands in for the firmware
		done, err := l.arr.Erase(victim, at)
		if err != nil {
			return at, err
		}
		at = done
		l.free++
	}
	return l.program(lpa, data, at)
}

func (l *flashLog) program(lpa uint64, data []byte, at vclock.Time) (vclock.Time, error) {
	cfg := l.arr.Config()
	if l.used == cfg.PagesPerBlock {
		l.head = (l.head + 1) % cfg.TotalBlocks()
		l.used = 0
		l.free--
	}
	oob := flash.OOB{LPA: lpa, BackPtr: flash.NullPPA, TS: at, Kind: flash.KindData}
	//almalint:allow layering reason: the ladder's flash rung prices raw Program/Read/Erase under the least possible FTL; it is the one place the benchmark stands in for the firmware
	ppa, done, err := l.arr.Program(l.head, data, oob, at)
	if err != nil {
		return at, err
	}
	l.used++
	l.table[lpa] = ppa
	return done, nil
}

// driveSync is the one-op-at-a-time client of the synchronous rungs:
// the set-up stream, then the timed stream, with the frame driver's
// shadow-model check and virtual clock rule. Only the timed stream is
// timed.
func driveSync(dev pageDev, in *servedInput, res *rungResult) error {
	clock := epoch
	replay := func(stream []servedOp) (failed int) {
		for _, o := range stream {
			lpa := uint64(o.lpa)
			var done vclock.Time
			var err error
			if o.write {
				done, err = dev.Write(lpa, in.c.page(lpa, int(o.ver)), clock)
			} else {
				var data []byte
				data, done, err = dev.Read(lpa, clock)
				if err == nil && !bytes.Equal(data, in.c.page(lpa, int(o.ver))) {
					failed++
				}
			}
			if err != nil {
				failed++
				done = clock
			}
			clock = max(clock.Add(opGap), done)
		}
		return failed
	}
	if failed := replay(in.setup); failed > 0 {
		return fmt.Errorf("%d set-up ops failed or returned wrong data", failed)
	}
	cpu0, t0 := cpuNow(), time.Now()
	res.failed = replay(in.timed)
	res.wallNS, res.cpuN = time.Since(t0).Nanoseconds(), cpuNow()-cpu0
	return nil
}

// arrayBatcher submits a frame's ops straight to the shard queues with
// array.Submit and waits for them: the array4 rung.
type arrayBatcher struct {
	arr  *array.Array
	cmds [][]array.Cmd // by slot, reused
	out  [][]service.BatchResult
}

func newArrayBatcher(arr *array.Array) *arrayBatcher {
	b := &arrayBatcher{arr: arr, cmds: make([][]array.Cmd, frameWindow), out: make([][]service.BatchResult, frameWindow)}
	for i := range b.cmds {
		b.cmds[i] = make([]array.Cmd, frameOps)
		b.out[i] = make([]service.BatchResult, frameOps)
	}
	return b
}

func (b *arrayBatcher) submit(slot int, ops []service.BatchOp) error {
	b.cmds[slot] = b.cmds[slot][:len(ops)]
	for i, op := range ops {
		cmd := &b.cmds[slot][i]
		if op.Kind == service.KindWrite {
			cmd.SetWrite(op.LPA, op.Data, op.At)
		} else {
			cmd.SetRead(op.LPA, op.At)
		}
		if err := b.arr.Submit(cmd); err != nil {
			return err
		}
	}
	return nil
}

func (b *arrayBatcher) wait(slot int) ([]service.BatchResult, error) {
	out := b.out[slot][:len(b.cmds[slot])]
	for i := range b.cmds[slot] {
		cmd := &b.cmds[slot][i]
		cmd.Wait()
		out[i] = service.BatchResult{Data: cmd.Out, Done: cmd.Done, Err: cmd.Err}
	}
	return out, nil
}

// volBatcher calls Volume.StartBatch/Complete directly: the service rung.
type volBatcher struct {
	vol  *service.Volume
	runs []service.BatchRun // by slot
}

func (b *volBatcher) submit(slot int, ops []service.BatchOp) error {
	b.vol.StartBatch(ops, &b.runs[slot])
	return nil
}

func (b *volBatcher) wait(slot int) ([]service.BatchResult, error) {
	return b.runs[slot].Complete(), nil
}

// runLadder executes every rung over stream and returns them bottom-up.
func runLadder(e *env, in *servedInput) ([]rungResult, error) {
	shard := servedGeometry(e.sz.servedBlocks)
	whole := servedGeometry(e.sz.servedBlocks * servedShards) // one device, the array's capacity
	out := make([]rungResult, len(rungNames))
	for i, name := range rungNames {
		res := &out[i]
		res.name, res.ops = name, len(in.timed)
		var err error
		switch name {
		case "flash":
			var l *flashLog
			if l, err = newFlashLog(whole.FTL.Flash, in.pages); err == nil {
				err = driveSync(l, in, res)
			}
		case "ftl":
			var d *ftl.Regular
			if d, err = ftl.NewRegular(whole.FTL); err == nil {
				err = driveSync(d, in, res)
			}
		case "core":
			var d *core.TimeSSD
			if d, err = core.New(whole); err == nil {
				err = driveSync(d, in, res)
			}
		case "array1":
			var arr *array.Array
			if arr, err = array.New(array.Config{Shards: 1, Shard: whole}); err == nil {
				err = driveSync(arr, in, res)
				_ = arr.Close() // Close on a live array cannot fail
			}
		case "array4":
			var arr *array.Array
			if arr, err = array.New(array.Config{Shards: servedShards, Shard: shard}); err == nil {
				err = ladderFrames(newArrayBatcher(arr), in, res)
				_ = arr.Close() // Close on a live array cannot fail
			}
		default: // service, pipe, tcp: the served stack, entered at three heights
			var st *servedStack
			if st, err = newServedStack(servedShards, shard, in.pages, true, name != "tcp"); err == nil {
				var b batcher = newWireBatcher(st)
				if name == "service" {
					b = &volBatcher{vol: st.vol, runs: make([]service.BatchRun, frameWindow)}
				}
				err = ladderFrames(b, in, res)
				st.close()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("ladder rung %s: %w", name, err)
		}
		releaseMemory()
	}
	return out, nil
}

// ladderFrames sets up through b, then times the timed stream through it.
func ladderFrames(b batcher, in *servedInput, res *rungResult) error {
	d := &frameDriver{b: b, c: in.c, clock: epoch}
	if err := d.setUp(in); err != nil {
		return err
	}
	var r repResult
	cpu0, t0 := cpuNow(), time.Now()
	err := d.drive(in.timed, frameOps, frameWindow, &r)
	res.wallNS, res.cpuN = time.Since(t0).Nanoseconds(), cpuNow()-cpu0
	if err == nil {
		err = d.recheck(in.timed, &r)
	}
	res.failed, res.torn = r.failed, r.tornReads
	return err
}

// ladderOps is the length of the stream every rung replays: the first two
// thirds of a served-pipelined repetition (400 k ops at the default size),
// which keeps the eight rungs inside the time one traced run may take.
func ladderOps(e *env) int { return e.scaled(e.sz.pipelinedOps*2/3, frameOps) }

// ladderMetrics turns rung results into ladder.<rung>.* metrics.
func ladderMetrics(rungs []rungResult, into map[string]float64) {
	below := 0.0
	for _, r := range rungs {
		ns := float64(r.wallNS) / float64(r.ops)
		into["ladder."+r.name+".ns_per_op"] = ns
		into["ladder."+r.name+".cpu_ns_per_op"] = float64(r.cpuN) / float64(r.ops)
		into["ladder."+r.name+".self_ns_per_op"] = ns - below
		below = ns
	}
}

// servedExperiments are the traced run's extra measurements on
// served-pipelined: the obs on/off A/B and the ladder. untraced is the
// workload's median untraced throughput, which the tcp rung — the same
// work — must reproduce (ladder.sum_check_pct).
func servedExperiments(e *env, res *workloadResult, untraced float64) error {
	off := *e
	off.obsOff = true
	r, err := runServed(&off, e.sz.pipelinedOps, frameOps, frameWindow)
	if err != nil {
		return fmt.Errorf("served-pipelined with obs off: %w", err)
	}
	releaseMemory()
	res.Attempted += r.attempted
	res.Failed += r.failed
	res.tornSeen(r.tornReads)
	offTput := float64(r.attempted) / float64(r.wallNS) * 1e9
	res.set("obs.overhead_pct", []float64{(offTput - untraced) / offTput * 100}, r.attempted)

	shardDev, err := core.New(servedGeometry(e.sz.servedBlocks))
	if err != nil {
		return err
	}
	volPages := uint64(shardDev.LogicalPages()) * servedShards / 2
	in := newServedInput(e.seed, shardDev.PageSize(), volPages, ladderOps(e), frameOps, frameWindow)
	rungs, err := runLadder(e, in)
	if err != nil {
		return err
	}
	m := map[string]float64{}
	ladderMetrics(rungs, m)
	for _, rg := range rungs {
		res.Attempted += rg.ops
		res.Failed += rg.failed
		res.tornSeen(rg.torn)
	}
	res.Correct = res.Failed == 0
	for name, v := range m {
		res.set(name, []float64{v}, len(in.timed))
	}
	tcp := m["ladder.tcp.ns_per_op"]
	res.set("ladder.sum_check_pct", []float64{math.Abs(tcp-1e9/untraced) / (1e9 / untraced) * 100}, len(in.timed))
	return nil
}
