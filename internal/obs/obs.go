// Package obs is the observability layer of the simulator: atomic
// counters, fixed-bucket latency histograms, and a lock-free trace ring,
// all keyed by operation class and aware of the simulation's two clocks.
//
// Every sample carries two durations. The *virtual* duration is the span
// between a command's virtual issue time and its virtual completion time —
// what the paper's evaluation plots (Figs. 6–11) as device latency. The
// *wall* duration is how long the host CPU spent simulating the command,
// which is what profiling the simulator itself needs. The two answer
// different questions and neither can be derived from the other, so both
// are recorded per class.
//
// The package deliberately imports nothing from the rest of the module
// (durations travel as int64 nanoseconds), so any layer — flash, ftl,
// core, array, almaproto, harness — may call it without creating an import
// cycle, and the almalint layering matrix needs no entry for it: obs
// observes, it never mutates simulation state.
//
// Cost model: every recording site first checks Registry.Enabled, so a
// disabled registry costs one atomic load per call. All methods are
// nil-receiver safe; code that may run without a registry (the plain FTL,
// bare flash arrays) simply leaves the pointer nil.
package obs

import (
	"sync/atomic"
	"time"
)

// Class identifies an operation class with its own counters and
// histograms.
type Class uint8

const (
	HostRead Class = iota
	HostWrite
	HostTrim
	FlashRead
	FlashProgram
	FlashErase
	GCPass
	DeltaFlush
	Rollback
	// Fault classes count injected NAND failures and the firmware's
	// recovery work (internal/fault). Appended after the v3 classes; the
	// wire format keys classes by name, so older peers simply ignore them.
	FaultECCCorrected
	FaultUncorrectable
	FaultProgramFail
	FaultEraseFail
	FaultPowerCut
	// Volume classes are the per-tenant view of host traffic recorded by
	// the service layer (internal/service): the same I/O the Host* classes
	// count device-wide, re-attributed to the volume that issued it, plus
	// the service-only batch and per-volume rollback operations. Appended
	// after the fault classes; the wire format keys classes by name, so
	// older peers simply ignore them.
	VolRead
	VolWrite
	VolTrim
	VolBatch
	VolRollback
	NumClasses
)

func (c Class) String() string {
	switch c {
	case HostRead:
		return "host-read"
	case HostWrite:
		return "host-write"
	case HostTrim:
		return "host-trim"
	case FlashRead:
		return "flash-read"
	case FlashProgram:
		return "flash-program"
	case FlashErase:
		return "flash-erase"
	case GCPass:
		return "gc-pass"
	case DeltaFlush:
		return "delta-flush"
	case Rollback:
		return "rollback"
	case FaultECCCorrected:
		return "fault-ecc-corrected"
	case FaultUncorrectable:
		return "fault-uncorrectable"
	case FaultProgramFail:
		return "fault-program-fail"
	case FaultEraseFail:
		return "fault-erase-fail"
	case FaultPowerCut:
		return "fault-power-cut"
	case VolRead:
		return "vol-read"
	case VolWrite:
		return "vol-write"
	case VolTrim:
		return "vol-trim"
	case VolBatch:
		return "vol-batch"
	case VolRollback:
		return "vol-rollback"
	default:
		return "class-unknown"
	}
}

// classMetrics is the per-class recording state.
type classMetrics struct {
	errors atomic.Int64
	virt   hist
	wall   hist
}

// Registry collects observations for one device (one array shard). It is
// safe for concurrent use by any number of recorders and readers; reads
// are lock-free and never block recording.
type Registry struct {
	enabled atomic.Bool
	shard   atomic.Int64
	classes [NumClasses]classMetrics
	ring    ring
}

// NewRegistry returns a disabled registry.
func NewRegistry() *Registry { return &Registry{} }

// SetEnabled turns recording on or off. The transition is racy by design:
// samples straddling the flip may or may not be recorded.
func (r *Registry) SetEnabled(on bool) {
	if r != nil {
		r.enabled.Store(on)
	}
}

// Enabled reports whether the registry records. This is the one atomic
// load the disabled path pays.
func (r *Registry) Enabled() bool { return r != nil && r.enabled.Load() }

// SetShard labels every subsequent trace event with an array shard id.
func (r *Registry) SetShard(id int) {
	if r != nil {
		r.shard.Store(int64(id))
	}
}

// wallBase anchors wall-time measurement: samples are offsets from process
// start, so they fit comfortably in int64 nanoseconds.
var wallBase = time.Now()

func wallNow() int64 { return time.Since(wallBase).Nanoseconds() + 1 }

// Start opens a wall-time measurement. It returns 0 when the registry is
// disabled (or nil); Observe treats a zero start as "no wall sample", so
// an enable that races an in-flight operation degrades gracefully.
func (r *Registry) Start() int64 {
	if !r.Enabled() {
		return 0
	}
	return wallNow()
}

// Observe records one completed operation: virtNS is the virtual-clock
// duration, wallStart the value Start returned. Failed operations count
// only toward the class error counter — histograms hold successful
// operations exclusively, which keeps each class count equal to the
// corresponding device counter (host-write count == HostPageWrites, and
// so on).
func (r *Registry) Observe(c Class, virtNS, wallStart int64, ok bool) {
	if !r.Enabled() || c >= NumClasses {
		return
	}
	m := &r.classes[c]
	if !ok {
		m.errors.Add(1)
		return
	}
	m.virt.observe(virtNS)
	if wallStart > 0 {
		m.wall.observe(wallNow() - wallStart)
	}
}

// ObserveBulk records virt.Count successful operations at once: their
// virtual durations are the samples virt holds, and the wall time since
// wallStart is split evenly among them, so the class count moves exactly
// as virt.Count calls to Observe would move it.
func (r *Registry) ObserveBulk(c Class, virt *HistSnapshot, wallStart int64) {
	if !r.Enabled() || c >= NumClasses || virt.Count == 0 {
		return
	}
	m := &r.classes[c]
	m.virt.merge(virt)
	if wallStart > 0 {
		m.wall.observeN((wallNow()-wallStart)/virt.Count, virt.Count)
	}
}

// Record is Observe plus a trace-ring event carrying the logical page
// address and the virtual issue/done pair. Host commands, GC passes,
// delta flushes and rollbacks use it; flash micro-operations use Observe
// alone so they cannot flush host-level history out of the ring.
func (r *Registry) Record(c Class, lpa uint64, issueNS, doneNS, wallStart int64, ok bool) {
	if !r.Enabled() || c >= NumClasses {
		return
	}
	r.Observe(c, doneNS-issueNS, wallStart, ok)
	r.ring.push(c, uint32(r.shard.Load()), ok, lpa, issueNS, doneNS)
}

// Ops snapshots the per-class statistics of every class that has recorded
// at least one sample or error, keyed by Class.String(). Classes are
// visited in declaration order, so the key set is deterministic.
func (r *Registry) Ops() map[string]OpStats {
	if r == nil {
		return nil
	}
	out := make(map[string]OpStats)
	for c := Class(0); c < NumClasses; c++ {
		m := &r.classes[c]
		st := OpStats{
			Errors: m.errors.Load(),
			Virt:   m.virt.snapshot(),
			Wall:   m.wall.snapshot(),
		}
		st.Count = st.Virt.Count
		if st.Count > 0 || st.Errors > 0 {
			out[c.String()] = st
		}
	}
	return out
}

// Trace returns up to max recent events, oldest first. max <= 0 means
// the whole ring.
func (r *Registry) Trace(max int) []Event {
	if r == nil {
		return nil
	}
	return r.ring.snapshot(max)
}
