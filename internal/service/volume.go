package service

import (
	"fmt"
	"sync/atomic"

	"almanac/internal/array"
	"almanac/internal/ftl"
	"almanac/internal/obs"
	"almanac/internal/timekits"
	"almanac/internal/vclock"
)

// Volume is one tenant's slice of the array: a contiguous extent of
// global LPAs addressed volume-relative (0 … Pages-1). The handle is
// shared by every attacher and safe for concurrent use; all I/O goes to
// the array, whose shards serialise it, without any volume lock.
type Volume struct {
	svc       *Service
	id        uint32
	name      string
	key       string
	base      uint64
	pages     uint64
	retention vclock.Duration
	createdAt vclock.Time
	reg       *obs.Registry
	dead      atomic.Bool
}

// ID returns the volume's service-assigned id.
func (v *Volume) ID() uint32 { return v.id }

// Name returns the volume's name.
func (v *Volume) Name() string { return v.name }

// Pages returns the volume's capacity in logical pages.
func (v *Volume) Pages() uint64 { return v.pages }

// Info returns the volume's public description.
func (v *Volume) Info() Info {
	return Info{ID: v.id, Name: v.name, Pages: v.pages, Retention: v.retention, CreatedAt: v.createdAt}
}

// WindowStart returns the start of the volume's visible window as of
// virtual time at: the latest of the array's physical window, the
// volume's creation, and — when the volume carries a retention promise —
// at minus that promise. Travel (queries, rollback) earlier than this
// fails with ErrBeforeWindow.
func (v *Volume) WindowStart(at vclock.Time) vclock.Time {
	ws := v.svc.arr.RetentionWindowStart()
	if v.createdAt > ws {
		ws = v.createdAt
	}
	if v.retention > 0 {
		if cap := at.Add(-v.retention); cap > ws {
			ws = cap
		}
	}
	return ws
}

// gate rejects operations on deleted volumes and operations stamped
// before the volume existed (virtual time is caller-supplied; a volume
// cannot absorb I/O from before its own creation, which is also what
// keeps a recycled extent's previous tenant invisible).
func (v *Volume) gate(at vclock.Time) error {
	if v.dead.Load() {
		return fmt.Errorf("%w: %q deleted", ErrNoVolume, v.name)
	}
	if at < v.createdAt {
		return fmt.Errorf("%w: at %v precedes volume %q creation %v", ErrBeforeWindow, at, v.name, v.createdAt)
	}
	return nil
}

// checkLPA bounds a volume-relative address.
func (v *Volume) checkLPA(lpa uint64) error {
	if lpa >= v.pages {
		return fmt.Errorf("%w: lpa %d (volume %q has %d pages)", ftl.ErrOutOfRange, lpa, v.name, v.pages)
	}
	return nil
}

// OpKind identifies one operation inside a batch.
type OpKind uint8

// Batch operation kinds. The values are also the v4 wire encoding.
const (
	KindRead OpKind = iota + 1
	KindWrite
	KindTrim
)

// BatchOp is one operation of a multi-op batch.
type BatchOp struct {
	Kind OpKind
	LPA  uint64 // volume-relative
	Data []byte // write payload
	At   vclock.Time
}

// BatchResult is the per-op completion: a typed error for the ops that
// failed, data and virtual completion time for the ones that succeeded.
// One failing op never poisons its batch.
type BatchResult struct {
	Data []byte // read result
	Done vclock.Time
	Err  error
}

// BatchRun is one batch in flight, the one way tenant I/O reaches a
// volume: StartBatch validates and submits every op to its shard in one
// pass, Complete collects the completions. The struct is reusable
// scratch — the protocol server keeps one per in-flight batch and
// recycles it, so a steady-state batch allocates nothing: the command
// slice holds Cmds by value and their completion channels survive reset
// (see array.Cmd). A BatchRun must not be touched between StartBatch and
// Complete, and the ops slice (with its write payloads) must stay valid
// until Complete returns.
type BatchRun struct {
	v     *Volume
	ops   []BatchOp
	out   []BatchResult
	cmds  []array.Cmd
	sub   []bool // cmds[i] was submitted and must be waited
	issue vclock.Time
	wall  int64 // the vol-batch wall clock, started by StartBatch
}

// StartBatch begins executing ops with true cross-shard pipelining:
// every valid op is submitted to its shard queue before any completion
// is awaited, so ops landing on different shards execute concurrently
// while per-shard FIFO order preserves the submission order of ops that
// collide. A batch of one op has nothing to pipeline: it is a synchronous
// op, and it executes on the caller when its shard is idle (array.Run)
// instead of paying a hand-off to the shard's worker and back.
// r.Complete collects the results; they are positional — out[i] completes
// ops[i].
func (v *Volume) StartBatch(ops []BatchOp, r *BatchRun) {
	r.v = v
	r.ops = ops
	// A one-op batch may execute right here, so the clock starts before
	// anything is submitted.
	r.wall = v.reg.Start()
	n := len(ops)
	if cap(r.out) < n {
		r.out = make([]BatchResult, n)
		r.cmds = make([]array.Cmd, n)
		r.sub = make([]bool, n)
	}
	r.out = r.out[:n]
	r.cmds = r.cmds[:n]
	r.sub = r.sub[:n]
	submit := (*array.Array).Submit
	if n == 1 {
		submit = (*array.Array).Run
	}
	var issue vclock.Time
	for i, op := range ops {
		r.out[i] = BatchResult{Done: op.At}
		r.sub[i] = false
		if err := v.gate(op.At); err != nil {
			r.out[i].Err = err
			continue
		}
		if err := v.checkLPA(op.LPA); err != nil {
			r.out[i].Err = err
			continue
		}
		global := v.base + op.LPA
		cmd := &r.cmds[i]
		switch op.Kind {
		case KindRead:
			cmd.SetRead(global, op.At)
		case KindWrite:
			cmd.SetWrite(global, op.Data, op.At)
		case KindTrim:
			cmd.SetTrim(global, op.At)
		default:
			r.out[i].Err = fmt.Errorf("service: unknown batch op kind %d", op.Kind)
			continue
		}
		if i == 0 || op.At < issue {
			issue = op.At
		}
		if err := submit(v.svc.arr, cmd); err != nil {
			r.out[i].Err = err
			continue
		}
		r.sub[i] = true
	}
	r.issue = issue
}

// Complete waits for every submitted op of the batch and returns the
// positional results. The returned slice, read Data included, is the run's
// scratch (each read's bytes live in its array.Cmd, not in device storage):
// it is valid until the next StartBatch on the same run.
func (r *BatchRun) Complete() []BatchResult {
	v := r.v
	ok := true
	done := vclock.Time(0)
	for i := range r.cmds {
		if !r.sub[i] {
			if r.out[i].Err != nil {
				ok = false
			}
			continue
		}
		cmd := &r.cmds[i]
		cmd.Wait()
		r.out[i] = BatchResult{Data: cmd.Out, Done: cmd.Done, Err: cmd.Err}
		v.observeOp(r.ops[i].Kind, r.ops[i].LPA, r.ops[i].At, cmd.Done, cmd.Err)
		if cmd.Err != nil {
			ok = false
		}
		if cmd.Done > done {
			done = cmd.Done
		}
	}
	if done < r.issue {
		done = r.issue
	}
	v.reg.Record(obs.VolBatch, uint64(len(r.ops)), int64(r.issue), int64(done), r.wall, ok)
	return r.out
}

func (v *Volume) observeOp(kind OpKind, lpa uint64, at, done vclock.Time, err error) {
	var c obs.Class
	switch kind {
	case KindRead:
		c = obs.VolRead
	case KindWrite:
		c = obs.VolWrite
	case KindTrim:
		c = obs.VolTrim
	default:
		return
	}
	v.reg.Record(c, lpa, int64(at), int64(done), 0, err == nil)
}

// History returns every retained version of cnt volume pages from lpa,
// filtered to the volume's visible window: dead versions from before the
// window — including anything a previous tenant of the extent wrote —
// are dropped; the live version always survives (it is the current
// content regardless of age).
func (v *Volume) History(lpa uint64, cnt int, at vclock.Time) (timekits.Result[[]timekits.PageVersions], error) {
	var zero timekits.Result[[]timekits.PageVersions]
	if err := v.gate(at); err != nil {
		return zero, err
	}
	if err := v.checkQueryRange(lpa, cnt); err != nil {
		return zero, err
	}
	res, err := v.svc.arr.AddrQueryAll(v.base+lpa, cnt, at)
	if err != nil {
		return zero, err
	}
	ws := v.WindowStart(at)
	for i := range res.Value {
		kept := res.Value[i].Versions[:0]
		for _, ver := range res.Value[i].Versions {
			if ver.Live || ver.TS >= ws {
				kept = append(kept, ver)
			}
		}
		res.Value[i].Versions = kept
		res.Value[i].LPA -= v.base // back to volume-relative
	}
	return res, nil
}

// RollBack reverts the whole volume to its state at time t. Only this
// volume's extent is touched: every other volume's version history is
// byte-identical before and after. The target t must lie in the
// volume's visible window.
func (v *Volume) RollBack(t, at vclock.Time) (timekits.Result[int], error) {
	if err := v.gate(at); err != nil {
		return timekits.Result[int]{}, err
	}
	if ws := v.WindowStart(at); t < ws {
		return timekits.Result[int]{}, fmt.Errorf("%w: t %v precedes window start %v of volume %q", ErrBeforeWindow, t, ws, v.name)
	}
	ws := v.reg.Start()
	res, err := v.svc.arr.RollBack(v.base, int(v.pages), t, at)
	v.reg.Record(obs.VolRollback, v.base, int64(at), int64(res.Done), ws, err == nil)
	return res, err
}

func (v *Volume) checkQueryRange(lpa uint64, cnt int) error {
	if cnt < 1 || uint64(cnt) > v.pages || lpa > v.pages-uint64(cnt) {
		return fmt.Errorf("%w: addr %d cnt %d (volume %q has %d pages)", timekits.ErrBadRange, lpa, cnt, v.name, v.pages)
	}
	return nil
}

// Snapshot returns the volume's observability snapshot: the vol-* class
// histograms plus counters derived from them. WindowStartNS is the
// volume's visible window floor independent of any in-flight operation
// (creation time or the physical window, whichever is later; the
// retention-promise clamp needs an `at` and is reported by WindowStart).
func (v *Volume) Snapshot() obs.Snapshot {
	ops := v.reg.Ops()
	ws := v.svc.arr.RetentionWindowStart()
	if v.createdAt > ws {
		ws = v.createdAt
	}
	var c obs.Counters
	c.HostPageReads = ops[obs.VolRead.String()].Count
	c.HostPageWrites = ops[obs.VolWrite.String()].Count
	c.TrimOps = ops[obs.VolTrim.String()].Count
	return obs.Snapshot{
		Shards:        1,
		WindowStartNS: int64(ws),
		C:             c,
		Ops:           ops,
	}
}
