package sweep

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"almanac/internal/core"
	"almanac/internal/obs"
	"almanac/internal/trace"
	"almanac/internal/vclock"
)

// Metrics are the comparison dimensions extracted from one design
// point's obs snapshot at the end of its workload. Every field is
// derived from virtual-time state — simulated device time, simulated
// flash micro-operations — so metrics are identical across hosts,
// worker counts, and runs.
type Metrics struct {
	// GCOverhead is GC flash micro-operations (reads+writes+erases) per
	// host page write: the paper's Eq. 1 quantity, measured rather than
	// estimated.
	GCOverhead float64 `json:"gc_overhead"`
	// WriteAmp is flash programs per host page write.
	WriteAmp float64 `json:"write_amp"`
	// WearMax is the maximum per-block erase count; WearSpread is
	// max-min — the wear-leveling pressure the configuration produced.
	WearMax    int `json:"wear_max"`
	WearSpread int `json:"wear_spread"`
	// RetentionDays is the achieved retention window at end of trace.
	RetentionDays float64 `json:"retention_days"`
	// P99WriteMS is the virtual-time p99 host-write latency (histogram
	// bucket upper bound, ms).
	P99WriteMS float64 `json:"p99_write_ms"`
	// Errors counts refused host operations (e.g. writes rejected to
	// protect the retention bound).
	Errors int64 `json:"errors"`
}

// PointResult pairs a design point with its metrics. Values are the
// axis values in spec-axis order; Key is the canonical core.Config
// encoding the sweep is checkpointed and diffed by.
type PointResult struct {
	Key     string   `json:"key"`
	Values  []string `json:"values"`
	Metrics Metrics  `json:"metrics"`
}

// Results is a completed (or resumed-to-completion) sweep.
type Results struct {
	Spec   *Spec
	Points []PointResult // in point enumeration order
}

// ErrStopped is returned by Engine.Run when StopAfter truncated the run:
// the checkpoint holds everything completed so far and a new Run with
// the same spec resumes where this one stopped.
var ErrStopped = errors.New("sweep: stopped before all points completed")

// Engine executes a Spec. The zero value is not usable: Spec and Base
// must be set.
type Engine struct {
	Spec *Spec
	// Base is the configuration every axis mutates from. Its geometry
	// also fixes the workload footprint.
	Base core.Config
	// Workers bounds the host worker pool (0 = GOMAXPROCS, 1 = serial).
	// Like the harness pool, parallelism changes wall-clock only: each
	// point writes a preassigned result slot.
	Workers int
	// Checkpoint, when non-empty, is a JSONL file appended after every
	// completed point and consulted before running any. Completed points
	// are matched by canonical config key, so resume survives process
	// death (the torn final line of a killed run is ignored) and even a
	// rebuilt binary, as long as the spec is unchanged.
	Checkpoint string
	// StopAfter, when positive, stops the run after that many *new*
	// points complete (checkpointed points don't count). Run returns
	// ErrStopped. This is the testing hook for kill/resume equivalence.
	StopAfter int
}

// Run expands, executes, and collects the sweep.
func (e *Engine) Run() (*Results, error) {
	if e.Spec == nil {
		return nil, errors.New("sweep: engine has no spec")
	}
	points, err := e.Spec.Points(e.Base)
	if err != nil {
		return nil, err
	}
	done, err := e.loadCheckpoint()
	if err != nil {
		return nil, err
	}

	var ckpt *os.File
	var ckptMu sync.Mutex
	if e.Checkpoint != "" {
		ckpt, err = os.OpenFile(e.Checkpoint, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		defer func() {
			if cerr := ckpt.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}

	slots := make([]PointResult, len(points))
	var todo []int
	for i, p := range points {
		if m, ok := done[p.Key]; ok {
			slots[i] = PointResult{Key: p.Key, Values: p.Values, Metrics: m}
			continue
		}
		todo = append(todo, i)
	}

	var started int64
	stopped := false
	budget := int64(len(todo))
	if e.StopAfter > 0 && int64(e.StopAfter) < budget {
		budget = int64(e.StopAfter)
		stopped = true
	}
	err = Parallel(e.Workers, len(todo), func(ti int) error {
		if atomic.AddInt64(&started, 1) > budget {
			return nil
		}
		i := todo[ti]
		m, err := runPoint(e.Spec, points[i])
		if err != nil {
			return fmt.Errorf("point %d (%s): %w", i, points[i].Key, err)
		}
		pr := PointResult{Key: points[i].Key, Values: points[i].Values, Metrics: m}
		slots[i] = pr
		if ckpt != nil {
			line, err := json.Marshal(pr)
			if err != nil {
				return err
			}
			line = append(line, '\n')
			ckptMu.Lock()
			_, werr := ckpt.Write(line)
			ckptMu.Unlock()
			if werr != nil {
				return werr
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if stopped {
		return nil, ErrStopped
	}
	return &Results{Spec: e.Spec, Points: slots}, nil
}

// loadCheckpoint reads completed points from the checkpoint file. A
// parse failure on the final line is a torn write from a killed run and
// is ignored; a parse failure anywhere else is corruption and reported.
func (e *Engine) loadCheckpoint() (map[string]Metrics, error) {
	done := map[string]Metrics{}
	if e.Checkpoint == "" {
		return done, nil
	}
	f, err := os.Open(e.Checkpoint)
	if err != nil {
		if os.IsNotExist(err) {
			return done, nil
		}
		return nil, err
	}
	defer f.Close() //nolint:errcheck // read-only
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var pending string
	line := 0
	for sc.Scan() {
		line++
		if pending != "" {
			return nil, fmt.Errorf("sweep: checkpoint %s line %d: unparsable non-final line: %s", e.Checkpoint, line-1, pending)
		}
		text := sc.Text()
		if text == "" {
			continue
		}
		var pr PointResult
		if err := json.Unmarshal([]byte(text), &pr); err != nil || pr.Key == "" {
			pending = text // only fatal if another line follows
			continue
		}
		done[pr.Key] = pr.Metrics
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return done, nil
}

// Parallel runs n independent jobs on a pool of workers (0 = GOMAXPROCS,
// 1 = serial) and waits for all of them. Jobs must not share mutable
// state: each builds its own devices/RNGs and writes only its own result
// slot (by index), so what is assembled afterwards is deterministic
// regardless of execution order. When several jobs fail, the
// lowest-indexed error is returned — the one the serial order would have
// hit first.
func Parallel(workers, n int, job func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runPoint builds the point's device, replays the spec workload on it,
// and reduces the closing obs snapshot to Metrics. Everything here is
// virtual-time-only; the host contributes no observable state.
func runPoint(s *Spec, p Point) (Metrics, error) {
	dev, err := core.New(p.Config)
	if err != nil {
		return Metrics{}, err
	}
	dev.Obs().SetEnabled(true)

	footprint := uint64(float64(dev.LogicalPages()) * s.Usage)
	tspec, err := trace.NamedSpec(s.Workload, footprint, s.Days, s.ReqPerDay, s.Seed)
	if err != nil {
		return Metrics{}, err
	}
	reqs, gen, _, err := trace.Warm(dev, tspec)
	if err != nil {
		return Metrics{}, err
	}
	st, err := trace.Replay(dev, reqs, gen)
	if err != nil {
		return Metrics{}, fmt.Errorf("replay: %w", err)
	}

	snap := dev.Snapshot()
	return snapshotMetrics(snap, dev, st.End, int64(st.Errors)), nil
}

// snapshotMetrics reduces a closing obs snapshot (plus the device's wear
// and window state) to the sweep's comparison dimensions.
func snapshotMetrics(snap obs.Snapshot, dev *core.TimeSSD, end vclock.Time, errors int64) Metrics {
	m := Metrics{Errors: errors}
	if hw := snap.C.HostPageWrites; hw > 0 {
		m.GCOverhead = float64(snap.C.GCReads+snap.C.GCWrites+snap.C.GCErases) / float64(hw)
		m.WriteAmp = float64(snap.C.FlashPrograms) / float64(hw)
	}
	minWear, maxWear := dev.Arr.WearSpread()
	m.WearMax = maxWear
	m.WearSpread = maxWear - minWear
	m.RetentionDays = dev.RetentionDuration(end).Hours() / 24
	if hwOps, ok := snap.Ops[obs.HostWrite.String()]; ok {
		m.P99WriteMS = float64(hwOps.Virt.QuantileNS(0.99)) / 1e6
	}
	return m
}
