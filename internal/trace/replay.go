package trace

import (
	"errors"
	"fmt"
	"sort"

	"almanac/internal/ftl"
	"almanac/internal/vclock"
)

// IdleDevice is implemented by devices that exploit idle cycles (TimeSSD's
// background delta compression, §3.6). The replayer announces gaps between
// requests to such devices.
type IdleDevice interface {
	Idle(now, until vclock.Time)
}

// RunStats aggregates a replay run.
type RunStats struct {
	Requests int
	Reads    int
	Writes   int
	Trims    int

	PagesRead    int64
	PagesWritten int64
	Errors       int

	RespSum vclock.Duration
	RespMax vclock.Duration

	Start vclock.Time
	End   vclock.Time // completion of the last request

	Latencies []vclock.Duration // per request, in trace order
}

// AvgResponse returns the mean per-request response time.
func (s *RunStats) AvgResponse() vclock.Duration {
	if s.Requests == 0 {
		return 0
	}
	return s.RespSum / vclock.Duration(s.Requests)
}

// Percentile returns the p-quantile (0 < p ≤ 1) of request latency.
func (s *RunStats) Percentile(p float64) vclock.Duration {
	if len(s.Latencies) == 0 {
		return 0
	}
	sorted := append([]vclock.Duration(nil), s.Latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Throughput returns requests per virtual second over the span of the run.
func (s *RunStats) Throughput() float64 {
	span := s.End.Sub(s.Start)
	if span <= 0 {
		return 0
	}
	return float64(s.Requests) / span.Seconds()
}

// Result is what one request came to on a device.
type Result struct {
	Done  vclock.Time // completion of its last page operation; its arrival if none completed
	Pages int         // pages read or written before any error (a trim counts none)
	Err   error       // the page error that stopped the request
}

// Replay drives the request stream against dev and returns statistics:
// Drive, then Fold.
func Replay(dev ftl.Device, reqs []Request, gen *ContentGen) (*RunStats, error) {
	return Fold(reqs, Drive(dev, reqs, gen))
}

// Drive issues reqs against dev in trace order and returns one Result per
// request issued. It is the one loop that turns requests into page
// operations (array.Replay runs it on every shard), and these are its rules:
//
//   - The pages of a read or a write are all issued at the request's
//     arrival (queue depth > 1; the per-channel busy horizons serialise what
//     actually contends), and the request completes with its slowest page.
//   - The pages of a trim are chained: each is issued when the previous one
//     completes.
//   - When a request arrives after the previous one completed, an
//     IdleDevice is told of the gap with Idle(prevDone, arrival).
//   - A page error ends its request. Fatal errors (see Fatal) also end the
//     run, so such a request's Result is the last one; every other error is
//     counted and the run goes on.
//
// Write payloads come from gen, one NextVersion per page in trace order.
func Drive(dev ftl.Device, reqs []Request, gen *ContentGen) []Result {
	res := make([]Result, 0, len(reqs))
	if len(reqs) == 0 {
		return res
	}
	idleDev, _ := dev.(IdleDevice)
	logical := uint64(dev.LogicalPages())
	prevDone := reqs[0].At
	for i := range reqs {
		r := &reqs[i]
		if idleDev != nil && r.At.After(prevDone) {
			idleDev.Idle(prevDone, r.At)
		}
		out := issue(dev, r, logical, gen)
		res = append(res, out)
		if Fatal(out.Err) {
			break
		}
		prevDone = out.Done
	}
	return res
}

// issue runs the page operations of one request.
func issue(dev ftl.Device, r *Request, logical uint64, gen *ContentGen) Result {
	out := Result{Done: r.At}
	switch r.Op {
	case OpRead:
		for p := 0; p < r.Pages; p++ {
			var d vclock.Time
			if _, d, out.Err = dev.Read((r.LPA+uint64(p))%logical, r.At); out.Err != nil {
				break
			}
			out.Done = max(out.Done, d)
			out.Pages++
		}
	case OpWrite:
		for p := 0; p < r.Pages; p++ {
			lpa := (r.LPA + uint64(p)) % logical
			var d vclock.Time
			if d, out.Err = dev.Write(lpa, gen.NextVersion(lpa), r.At); out.Err != nil {
				break
			}
			out.Done = max(out.Done, d)
			out.Pages++
		}
	case OpTrim:
		at := r.At
		for p := 0; p < r.Pages && out.Err == nil; p++ {
			at, out.Err = dev.Trim((r.LPA+uint64(p))%logical, at)
		}
		out.Done = max(r.At, at)
	default:
		out.Err = fmt.Errorf("%w %v", errUnknownOp, r.Op)
	}
	return out
}

var errUnknownOp = errors.New("trace: unknown op")

// Fatal reports whether a request's error ends a replay: a full device
// (nothing later can succeed) or a request naming no known op. Every other
// error, core.ErrRetentionFull included, is counted and the run goes on.
func Fatal(err error) bool {
	return errors.Is(err, ftl.ErrDeviceFull) || errors.Is(err, errUnknownOp)
}

// Fold reduces per-request results, res[i] being reqs[i]'s, to RunStats.
// The first fatal result ends the fold, and Fold returns its error.
func Fold(reqs []Request, res []Result) (*RunStats, error) {
	st := &RunStats{}
	if len(reqs) == 0 {
		return st, nil
	}
	st.Start = reqs[0].At
	st.Latencies = make([]vclock.Duration, 0, len(res))
	for i, out := range res {
		r := &reqs[i]
		switch r.Op {
		case OpRead:
			st.Reads++
			st.PagesRead += int64(out.Pages)
		case OpWrite:
			st.Writes++
			st.PagesWritten += int64(out.Pages)
		case OpTrim:
			st.Trims++
		}
		st.Requests++
		if out.Err != nil {
			st.Errors++
			if Fatal(out.Err) {
				return st, fmt.Errorf("request %d (%v lpa=%d): %w", i, r.Op, r.LPA, out.Err)
			}
		}
		resp := out.Done.Sub(r.At)
		st.RespSum += resp
		st.RespMax = max(st.RespMax, resp)
		st.Latencies = append(st.Latencies, resp)
		if out.Done.After(st.End) {
			st.End = out.Done
		}
	}
	return st, nil
}

// Fill primes a device by writing every page of [0, footprint) once, at
// tightly spaced timestamps starting at `at`. It returns the completion
// time. The paper warms the SSD before each experiment so GC is active.
func Fill(dev ftl.Device, footprint uint64, gen *ContentGen, at vclock.Time) (vclock.Time, error) {
	for lpa := uint64(0); lpa < footprint; lpa++ {
		done, err := dev.Write(lpa, gen.NextVersion(lpa), at)
		if err != nil {
			return at, fmt.Errorf("fill lpa %d: %w", lpa, err)
		}
		at = done
	}
	return at, nil
}
