// Package array scales TimeSSD horizontally: an Array stripes the logical
// address space across N independent TimeSSD shards, each with a worker
// goroutine fed by a buffered submission queue — the host-side analogue of
// an NVMe submission/completion queue pair per device. Reads, writes, trims
// and TimeKits calls that land on different shards proceed in true parallel
// on the host, while each shard keeps the single-threaded firmware model
// the simulator assumes.
//
// Time travel is preserved across the array: version timestamps are host
// issue times (DESIGN.md §4a.6), which every shard shares, so one virtual
// timestamp names a consistent cross-shard point in time. Array-level
// TimeKits (kits.go) fan queries and rollbacks out across shards and merge
// the results; the retrievable window of the array is the intersection of
// the per-shard windows.
//
// Concurrency model: a shard's TimeSSD is touched by one goroutine at a
// time — the shard's worker, or a caller that found the shard idle. The
// shard's own mutex is that exclusivity: the worker holds it while it
// executes a drained batch, and a synchronous caller (Read, Write, Trim,
// Run) that finds nothing queued or executing takes it with TryLock and
// runs its one command on its own goroutine, with no hand-off and no
// wake-up. Everything asynchronous — Submit, Replay, the fan-out behind
// the array-wide TimeKits — goes through the queue to the worker, which is
// what lets different shards execute in parallel. Every operation,
// including queries (which charge flash reads and therefore mutate channel
// timing state), runs under that one rule, and a shard executes commands in
// the order they were submitted to it: an inline command runs only when the
// shard's count of queued-and-unfinished commands is zero, so it can never
// overtake a command its submitter queued earlier. The only shared mutable
// state beside the device is each shard's stats snapshot, a fixed slot
// republished after every worker batch and every inline command, which lets
// Identify- and Stats-style callers observe the array without queueing
// behind long queries. Workers drain their whole submission queue per
// wakeup and execute the batch back to back, publishing one snapshot per
// batch; a command's completion is only observable after the snapshot
// covering it is.
package array

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"almanac/internal/core"
	"almanac/internal/fault"
	"almanac/internal/ftl"
	"almanac/internal/obs"
	"almanac/internal/timekits"
	"almanac/internal/vclock"
)

// Config parameterises an Array.
type Config struct {
	// Shards is the number of TimeSSD devices in the array (≥ 1).
	Shards int

	// Shard configures each member device. All shards share one geometry:
	// uniform stripes keep the LPA mapping a pure mod/div pair.
	Shard core.Config
}

// queueDepth is the buffered capacity of each shard's submission queue.
// Submission blocks when the queue is full (host-side backpressure, like a
// full NVMe SQ).
const queueDepth = 64

// opKind identifies a queued command.
type opKind uint8

const (
	opRead opKind = iota + 1
	opWrite
	opTrim
	opFunc // internal fan-out: run fn on the shard's device/kit
)

// Cmd is one command. Hand it to the array with Submit (always queued for
// the shard's worker) or Run (executed on the caller when the shard is
// idle, queued otherwise) and observe its completion with Wait; the result
// fields are valid only after Wait returns. Out is the Cmd's own memory —
// whoever executes a read copies its bytes out of the flash arena before
// the shard executes anything else — and stays valid until the Cmd is reset
// or resubmitted. A Cmd must not be reused while in flight, and every
// submitted Cmd must be Waited exactly once before reuse — a queued
// command's completion is a token sent on a one-slot channel (not a close),
// precisely so a Cmd can be recycled: the channel is allocated on first
// queueing and then reused for the command's whole life (see the service
// layer's BatchRun, which keeps per-connection Cmd scratch and resets it
// with SetRead / SetWrite / SetTrim between batches). A command that ran
// inline never touches the channel.
type Cmd struct {
	Kind opKind
	LPA  uint64 // global (array) LPA
	Data []byte // write payload
	At   vclock.Time

	// Results.
	Out  []byte
	Done vclock.Time
	Err  error

	fn     func(dev *core.TimeSSD, kit *timekits.Kit)
	done   chan struct{} // cap 1; one completion token per queued submission
	inline bool          // executed by its submitter: complete, and no token to consume
	buf    []byte        // backing store of Out; survives reset so recycled Cmds read without allocating
}

// Wait blocks until the command has been executed: it returns at once for
// a command its submitter ran inline, and consumes the worker's completion
// token otherwise.
func (c *Cmd) Wait() {
	if !c.inline {
		<-c.done
	}
}

// TrimCmd builds a queued trim of global LPA lpa, for a submitter that
// queues many commands before waiting on any (the service's volume scrub)
// so that commands landing on different shards execute concurrently.
func TrimCmd(lpa uint64, at vclock.Time) *Cmd { return &Cmd{Kind: opTrim, LPA: lpa, At: at} }

// SetRead, SetWrite and SetTrim reset a completed (or fresh) Cmd in
// place for resubmission, clearing results while keeping the completion
// channel — the reuse path that lets batch submitters recycle Cmd
// scratch with zero allocations in steady state.
func (c *Cmd) SetRead(lpa uint64, at vclock.Time) { c.reset(opRead, lpa, nil, at) }

// SetWrite resets the Cmd to a queued write of data to global LPA lpa.
func (c *Cmd) SetWrite(lpa uint64, data []byte, at vclock.Time) { c.reset(opWrite, lpa, data, at) }

// SetTrim resets the Cmd to a queued trim of global LPA lpa.
func (c *Cmd) SetTrim(lpa uint64, at vclock.Time) { c.reset(opTrim, lpa, nil, at) }

func (c *Cmd) reset(kind opKind, lpa uint64, data []byte, at vclock.Time) {
	c.Kind, c.LPA, c.Data, c.At = kind, lpa, data, at
	c.Out, c.Done, c.Err, c.fn, c.inline = nil, 0, nil, nil, false
}

// Snapshot is the per-shard state view republished after every worker
// batch and every inline command (see StatsView): the retention-window
// header plus the canonical counter surface. Histograms are not part of the
// published snapshot — they live in the shard's obs registry, which is safe
// to read lock-free at any time (see ObsSnapshot).
type Snapshot struct {
	WindowStart vclock.Time
	Segments    int
	C           obs.Counters
}

// shard is one member device plus its worker plumbing.
type shard struct {
	id  int
	dev *core.TimeSSD
	kit *timekits.Kit
	sq  chan *Cmd

	// own is held by the one goroutine executing on dev and kit: the worker
	// for a drained batch, or a caller running its own command (runInline).
	// queued counts the commands handed to sq that have not finished
	// executing; a caller may take own only while it reads zero.
	own    sync.Mutex
	queued atomic.Int32

	// snap is the published snapshot, a fixed slot copied in and out under
	// snapMu so that publishing allocates nothing and readers never wait
	// for the device.
	snapMu sync.Mutex
	snap   Snapshot
}

// Array is a striped multi-device TimeSSD.
type Array struct {
	cfg     Config
	shards  []*shard
	logical int
	pages   int // page size

	wg sync.WaitGroup

	// closeMu serialises queue submissions against Close: senders hold the
	// read side while enqueueing, so the queues can only be closed when no
	// send is in flight (a send on a closed channel would panic). Inline
	// execution does not take it: Close waits for inline owners on each
	// shard's own mutex instead.
	closeMu sync.RWMutex
	closed  atomic.Bool
}

var _ ftl.Device = (*Array)(nil)

// ErrClosed is returned for submissions after Close.
var ErrClosed = errors.New("array: closed")

// New builds an array of cfg.Shards fresh TimeSSDs and starts one worker
// per shard.
func New(cfg Config) (*Array, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("array: need at least 1 shard, got %d", cfg.Shards)
	}
	a := &Array{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		dev, err := core.New(cfg.Shard)
		if err != nil {
			a.stopWorkers()
			return nil, fmt.Errorf("array: shard %d: %w", i, err)
		}
		a.addShard(dev)
	}
	a.finish()
	return a, nil
}

// Assemble builds an array over pre-built devices (the almanacd image-load
// path: each shard is rebuilt from its own image file, then handed here).
// All devices must share one geometry.
func Assemble(devs []*core.TimeSSD) (*Array, error) {
	if len(devs) == 0 {
		return nil, errors.New("array: no shards")
	}
	a := &Array{cfg: Config{Shards: len(devs), Shard: devs[0].Config()}}
	for i, dev := range devs {
		if dev.LogicalPages() != devs[0].LogicalPages() || dev.PageSize() != devs[0].PageSize() {
			a.stopWorkers()
			return nil, fmt.Errorf("array: shard %d geometry differs from shard 0", i)
		}
		a.addShard(dev)
	}
	a.finish()
	return a, nil
}

func (a *Array) addShard(dev *core.TimeSSD) {
	s := &shard{
		id:  len(a.shards),
		dev: dev,
		kit: timekits.New(dev),
		sq:  make(chan *Cmd, queueDepth),
	}
	dev.Obs().SetShard(s.id)
	s.publish()
	a.shards = append(a.shards, s)
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		s.run()
	}()
}

func (a *Array) finish() {
	a.logical = a.shards[0].dev.LogicalPages() * len(a.shards)
	a.pages = a.shards[0].dev.PageSize()
}

func (a *Array) stopWorkers() {
	for _, s := range a.shards {
		close(s.sq)
	}
	a.wg.Wait()
}

// Close drains and stops every worker. Commands already submitted complete;
// later submissions fail with ErrClosed. When Close returns, nothing is
// executing on any device.
func (a *Array) Close() error {
	a.closeMu.Lock()
	if a.closed.Load() {
		a.closeMu.Unlock()
		return nil
	}
	a.closed.Store(true)
	a.closeMu.Unlock()
	a.stopWorkers()
	// A caller that took a shard before closed was set may still be running
	// its command inline; taking each shard once waits it out, and whoever
	// takes a shard after this sees closed.
	for _, s := range a.shards {
		s.own.Lock() // the acquisition is the wait
		s.own.Unlock()
	}
	return nil
}

// run is the worker loop: execute commands FIFO, republish the snapshot.
//
// The loop is batched: one blocking receive picks up the first command,
// then every command already sitting in the queue is drained without
// blocking and the whole batch executes back to back. The snapshot is
// republished once per batch — after the last command and before any
// completion is signalled — so the invariant callers rely on still holds:
// when a command's Wait returns, the published snapshot includes that
// command's effects. Under a loaded queue this replaces one snapshot
// publish per command with one per wakeup. The worker owns the shard for
// exactly the execution of the batch; queued drops before own is released,
// so a submitter whose commands have all executed finds the shard idle.
func (s *shard) run() {
	batch := make([]*Cmd, 0, cap(s.sq))
	for cmd := range s.sq {
		batch = append(batch[:0], cmd)
	drain:
		for {
			select {
			case c, ok := <-s.sq:
				if !ok {
					break drain // closed: finish this batch, outer range exits
				}
				batch = append(batch, c)
			default:
				break drain
			}
		}
		s.own.Lock()
		for _, c := range batch {
			s.exec(c)
		}
		s.publish()
		s.queued.Add(-int32(len(batch)))
		s.own.Unlock()
		for i, c := range batch {
			c.done <- struct{}{} // one token per submission; never blocks (cap 1)
			batch[i] = nil       // release completed commands while idle in the outer receive
		}
	}
}

func (s *shard) exec(c *Cmd) {
	local := c.LPA
	switch c.Kind {
	case opRead:
		// dev.Read aliases the flash arena, which the next write or GC pass
		// on this shard may erase and re-program; the bytes leave the shard's
		// owner here — worker or inline caller — so this is where they are
		// copied.
		var out []byte
		out, c.Done, c.Err = s.dev.Read(local, c.At)
		if c.Err == nil {
			c.buf = append(c.buf[:0], out...)
			c.Out = c.buf
		}
	case opWrite:
		c.Done, c.Err = s.dev.Write(local, c.Data, c.At)
		c.Data = nil // release the payload; batch submitters retain Cmds until collection
	case opTrim:
		c.Done, c.Err = s.dev.Trim(local, c.At)
	case opFunc:
		c.fn(s.dev, s.kit)
		c.Done = c.At
	default:
		c.Err = fmt.Errorf("array: unknown command kind %d", c.Kind)
	}
}

// publish copies the device's current state into the snapshot slot. Called
// by the shard's owner after it executes and before its commands'
// completion is observable.
func (s *shard) publish() {
	sn := Snapshot{
		WindowStart: s.dev.RetentionWindowStart(),
		Segments:    s.dev.Segments(),
		C:           s.dev.Counters(),
	}
	s.snapMu.Lock()
	s.snap = sn
	s.snapMu.Unlock()
}

// snapshot returns the shard's latest published snapshot.
func (s *shard) snapshot() Snapshot {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.snap
}

// runInline executes c on the calling goroutine if the shard is idle:
// nothing queued or executing on the worker (queued is zero, so c cannot
// overtake a command its submitter queued earlier) and no other caller
// inside. It is the worker's protocol on the caller's goroutine — take the
// shard, execute, publish, release — and reports false, having done
// nothing, when the command has to queue instead (on a closed array too:
// the queue is what refuses it).
func (a *Array) runInline(s *shard, c *Cmd) bool {
	if s.queued.Load() != 0 || !s.own.TryLock() {
		return false
	}
	if a.closed.Load() {
		s.own.Unlock()
		return false
	}
	s.exec(c)
	s.publish()
	s.own.Unlock()
	c.inline = true
	return true
}

// ---- striping -------------------------------------------------------------

// Shards returns the number of member devices.
func (a *Array) Shards() int { return len(a.shards) }

// ShardConfig returns the configuration shared by every member device.
func (a *Array) ShardConfig() core.Config { return a.cfg.Shard }

// LogicalPages is the array's exported capacity: the sum over shards.
func (a *Array) LogicalPages() int { return a.logical }

// PageSize is the page size shared by every shard.
func (a *Array) PageSize() int { return a.pages }

// Locate maps a global LPA to its shard and shard-local LPA. Striping is
// round-robin at page granularity (shard = lpa mod N), so sequential host
// ranges spread across every member device — the same reason SSDs stripe
// across channels.
func (a *Array) Locate(lpa uint64) (shard int, local uint64) {
	n := uint64(len(a.shards))
	return int(lpa % n), lpa / n
}

// GlobalLPA is the inverse of Locate.
func (a *Array) GlobalLPA(shard int, local uint64) uint64 {
	return local*uint64(len(a.shards)) + uint64(shard)
}

func (a *Array) checkLPA(lpa uint64) error {
	if lpa >= uint64(a.logical) {
		return fmt.Errorf("%w: lpa %d (array has %d pages)", ftl.ErrOutOfRange, lpa, a.logical)
	}
	return nil
}

// ---- submission -----------------------------------------------------------

// Submit enqueues cmd on the shard owning cmd.LPA (Read/Write/Trim) for
// the shard's worker. The call blocks only while that shard's queue is
// full. Completion is observed with cmd.Wait. Submitters that keep many
// commands in flight use this: commands on different shards execute
// concurrently.
func (a *Array) Submit(cmd *Cmd) error {
	sh, err := a.route(cmd)
	if err != nil {
		return err
	}
	return a.submitTo(sh, cmd)
}

// route bounds cmd.LPA, rewrites it shard-local and returns its shard.
func (a *Array) route(cmd *Cmd) (sh int, err error) {
	if err := a.checkLPA(cmd.LPA); err != nil {
		return 0, err
	}
	sh, cmd.LPA = a.Locate(cmd.LPA)
	return sh, nil
}

// Run is Submit for a submitter that is about to Wait on cmd and on nothing
// else: when the owning shard is idle the command executes on the calling
// goroutine before Run returns, and otherwise it is queued exactly as
// Submit would. Either way completion is observed with cmd.Wait.
func (a *Array) Run(cmd *Cmd) error {
	sh, err := a.route(cmd)
	if err != nil || a.runInline(a.shards[sh], cmd) {
		return err
	}
	return a.submitTo(sh, cmd)
}

// submitTo enqueues a command on an explicit shard.
func (a *Array) submitTo(sh int, cmd *Cmd) error {
	a.closeMu.RLock()
	defer a.closeMu.RUnlock()
	if a.closed.Load() {
		return ErrClosed
	}
	if cmd.done == nil {
		cmd.done = make(chan struct{}, 1)
	}
	s := a.shards[sh]
	s.queued.Add(1) // before the send: from here on no caller may run inline ahead of cmd
	// Sending under the read lock is the design: Close takes the write side
	// only after every in-flight send finished, and workers drain the queue
	// without ever taking closeMu, so a full queue cannot deadlock Close.
	//almalint:allow lockorder reason: workers drain sq without taking closeMu, so a full queue cannot block Close
	s.sq <- cmd
	return nil
}

// fanOut runs fn on every shard concurrently and waits for all of them.
// fn receives the shard index and must only touch that shard's device/kit.
func (a *Array) fanOut(at vclock.Time, fn func(i int, dev *core.TimeSSD, kit *timekits.Kit)) error {
	cmds := make([]*Cmd, len(a.shards))
	for i := range a.shards {
		i := i
		cmds[i] = &Cmd{Kind: opFunc, At: at, fn: func(dev *core.TimeSSD, kit *timekits.Kit) { fn(i, dev, kit) }}
		if err := a.submitTo(i, cmds[i]); err != nil {
			for _, c := range cmds[:i] {
				c.Wait()
			}
			return err
		}
	}
	for _, c := range cmds {
		c.Wait()
	}
	return nil
}

// ---- synchronous ftl.Device interface -------------------------------------

// sync executes one command to completion for the synchronous wrappers.
// On an idle shard it runs on the caller out of a Cmd that never leaves the
// caller's stack; only when it has to queue behind other work does it
// allocate a Cmd and a completion channel.
func (a *Array) sync(kind opKind, lpa uint64, data []byte, at vclock.Time) ([]byte, vclock.Time, error) {
	if err := a.checkLPA(lpa); err != nil {
		return nil, at, err
	}
	sh, local := a.Locate(lpa)
	var c Cmd
	c.reset(kind, local, data, at)
	if a.runInline(a.shards[sh], &c) {
		return c.Out, c.Done, c.Err
	}
	q := &Cmd{Kind: kind, LPA: local, Data: data, At: at}
	if err := a.submitTo(sh, q); err != nil {
		return nil, at, err
	}
	q.Wait()
	return q.Out, q.Done, q.Err
}

// Read returns the current version of lpa. The data is the caller's own
// copy (see Cmd.Out), not an alias of device storage.
func (a *Array) Read(lpa uint64, at vclock.Time) ([]byte, vclock.Time, error) {
	return a.sync(opRead, lpa, nil, at)
}

// Write stores a new version of lpa.
func (a *Array) Write(lpa uint64, data []byte, at vclock.Time) (vclock.Time, error) {
	_, done, err := a.sync(opWrite, lpa, data, at)
	return done, err
}

// Trim invalidates lpa.
func (a *Array) Trim(lpa uint64, at vclock.Time) (vclock.Time, error) {
	_, done, err := a.sync(opTrim, lpa, nil, at)
	return done, err
}

// ---- observability --------------------------------------------------------

// StatsView sums the per-shard counter snapshots without queueing: the
// view never waits for a device and may trail in-flight commands by at
// most one batch (bounded by the queue depth) per shard.
func (a *Array) StatsView() obs.Counters {
	var out obs.Counters
	for _, s := range a.shards {
		out.Add(s.snapshot().C)
	}
	return out
}

// SetFaultPlan arms a plan-driven fault injector on every shard, or
// disarms injection when p is nil. Each shard's injector is built from the
// plan reseeded with Seed+shard, so a multi-shard sweep exercises
// different fault timings per device while staying fully deterministic.
// The swap travels through the shard workers like any other command, so
// it never races in-flight I/O.
func (a *Array) SetFaultPlan(p *fault.Plan) error {
	injs := make([]*fault.Injector, len(a.shards))
	if p != nil {
		for i := range injs {
			inj, err := fault.NewInjector(p.Reseeded(p.Seed + int64(i)))
			if err != nil {
				return err
			}
			injs[i] = inj
		}
	}
	return a.fanOut(0, func(i int, dev *core.TimeSSD, _ *timekits.Kit) {
		dev.SetFaults(injs[i])
	})
}

// SetMinRetention replaces the guaranteed retention lower bound on every
// shard. The service layer calls this with the maximum over per-volume
// retention promises (plus the operator's configured floor), so the
// array-wide window always covers the strictest volume. The change
// travels through the shard workers like any other command and therefore
// never races in-flight I/O.
func (a *Array) SetMinRetention(d vclock.Duration) error {
	return a.fanOut(0, func(_ int, dev *core.TimeSSD, _ *timekits.Kit) {
		dev.SetMinRetention(d)
	})
}

// SetObsEnabled switches histogram and trace recording on every shard.
// Registries are lock-free, so the flip needs no queueing; commands in
// flight during the transition may be partially recorded.
func (a *Array) SetObsEnabled(on bool) {
	for _, s := range a.shards {
		s.dev.Obs().SetEnabled(on)
	}
}

// ObsSnapshot merges every shard's published counters and lock-free
// histogram state into one array-wide snapshot. Shards are visited in
// index order and per-class maps merge over sorted keys, so two calls
// against the same per-shard states produce identical snapshots.
func (a *Array) ObsSnapshot() obs.Snapshot {
	var out obs.Snapshot
	for _, s := range a.shards {
		sn := s.snapshot()
		out.Merge(obs.Snapshot{
			Shards:        1,
			WindowStartNS: int64(sn.WindowStart),
			Segments:      sn.Segments,
			C:             sn.C,
			Ops:           s.dev.Obs().Ops(),
		})
	}
	return out
}

// TraceEvents merges the per-shard trace rings, ordered by virtual
// completion time; ties keep shard order and, within a shard, the order
// the events were recorded in (a rollback's inner writes before the
// rollback). It keeps the latest max events; max <= 0 means everything the
// rings hold.
func (a *Array) TraceEvents(max int) []obs.Event {
	var all []obs.Event
	for _, s := range a.shards {
		all = append(all, s.dev.Obs().Trace(0)...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].DoneNS < all[j].DoneNS })
	if max > 0 && len(all) > max {
		all = all[len(all)-max:]
	}
	return all
}

// ShardSnapshot returns shard i's latest published snapshot without
// queueing.
func (a *Array) ShardSnapshot(i int) Snapshot { return a.shards[i].snapshot() }

// RetentionWindowStart returns the start of the array-wide retrievable
// window: the latest per-shard window start. Inside it, every shard can
// answer for its stripe, so a cross-shard query at any t past this point
// is consistent; individual shards may reach further back on their own.
func (a *Array) RetentionWindowStart() vclock.Time {
	var start vclock.Time
	for _, s := range a.shards {
		if ws := s.snapshot().WindowStart; ws > start {
			start = ws
		}
	}
	return start
}

// WriteAmplification returns array-wide flash programs / host page writes.
func (a *Array) WriteAmplification() float64 {
	c := a.StatsView()
	if c.HostPageWrites == 0 {
		return 0
	}
	return float64(c.FlashPrograms) / float64(c.HostPageWrites)
}

// CheckInvariants runs the per-device invariant checker on every shard.
func (a *Array) CheckInvariants() error {
	errs := make([]error, len(a.shards))
	if err := a.fanOut(0, func(i int, dev *core.TimeSSD, _ *timekits.Kit) {
		errs[i] = dev.CheckInvariants()
	}); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("array: shard %d: %w", i, err)
		}
	}
	return nil
}
