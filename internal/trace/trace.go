// Package trace provides the workload substrate for the evaluation
// (Table 2): parameterised synthetic block traces standing in for the MSR
// Cambridge and FIU production traces, trace prolongation as described in
// §5.2, content synthesis with controlled delta-compression ratio, and a
// replayer that drives any ftl.Device and gathers response-time statistics.
//
// Substitution note (see DESIGN.md): the original traces are not
// redistributable, so each named workload is generated from parameters
// matching its published characterisation — write ratio, footprint,
// request size, skew, and idleness — which are the properties the paper's
// results depend on.
package trace

import (
	"fmt"
	"math/rand"

	"almanac/internal/vclock"
)

// Op is a block-level operation.
type Op uint8

const (
	OpRead Op = iota
	OpWrite
	OpTrim
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpTrim:
		return "trim"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Request is one host I/O: Pages consecutive logical pages starting at LPA,
// issued at virtual time At.
type Request struct {
	At    vclock.Time
	Op    Op
	LPA   uint64
	Pages int
}

// Spec parameterises a synthetic workload.
type Spec struct {
	Name     string
	Seed     int64
	Requests int             // number of requests to generate
	Duration vclock.Duration // virtual time the trace spans

	WriteRatio float64 // fraction of requests that are writes
	TrimRatio  float64 // fraction of requests that are trims (of the write share)

	// Footprint is the number of logical pages the workload touches;
	// requests fall in [Base, Base+Footprint).
	Base      uint64
	Footprint uint64

	// AvgPages is the mean request size in pages (geometric distribution,
	// min 1); SeqProb is the probability a request continues sequentially
	// from the previous one.
	AvgPages int
	SeqProb  float64

	// HotFraction of the footprint receives HotAccess of the accesses
	// (hot/cold skew).
	HotFraction float64
	HotAccess   float64

	// BurstLen is the mean number of requests per burst; bursts are
	// separated by idle gaps so that the trace spans Duration. Within a
	// burst, requests are back-to-back (BurstGap apart).
	BurstLen int
	BurstGap vclock.Duration
}

// Validate checks the spec for generate-ability.
func (s *Spec) Validate() error {
	switch {
	case s.Requests <= 0:
		return fmt.Errorf("trace %s: no requests", s.Name)
	case s.Footprint == 0:
		return fmt.Errorf("trace %s: zero footprint", s.Name)
	case s.WriteRatio < 0 || s.WriteRatio > 1:
		return fmt.Errorf("trace %s: write ratio %v", s.Name, s.WriteRatio)
	case s.Duration <= 0:
		return fmt.Errorf("trace %s: zero duration", s.Name)
	}
	return nil
}

// Generate produces the deterministic request stream for the spec.
func Generate(s Spec) ([]Request, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.AvgPages < 1 {
		s.AvgPages = 1
	}
	if s.BurstLen < 1 {
		s.BurstLen = 1
	}
	rng := rand.New(rand.NewSource(s.Seed))
	reqs := make([]Request, 0, s.Requests)

	hotPages := uint64(float64(s.Footprint) * s.HotFraction)
	if hotPages == 0 {
		hotPages = 1
	}

	// Idle budget: total duration minus in-burst time, spread over bursts.
	bursts := s.Requests / s.BurstLen
	if bursts < 1 {
		bursts = 1
	}
	inBurst := vclock.Duration(s.Requests) * s.BurstGap
	idleTotal := s.Duration - inBurst
	if idleTotal < 0 {
		idleTotal = 0
	}
	meanIdle := idleTotal / vclock.Duration(bursts)

	at := vclock.Time(0)
	var prevEnd uint64
	burstLeft := 1 + rng.Intn(2*s.BurstLen)
	for i := 0; i < s.Requests; i++ {
		if burstLeft == 0 {
			// Exponential idle gap with the computed mean.
			gap := vclock.Duration(rng.ExpFloat64() * float64(meanIdle))
			at = at.Add(gap)
			burstLeft = 1 + rng.Intn(2*s.BurstLen)
		} else {
			at = at.Add(s.BurstGap)
		}
		burstLeft--

		var op Op
		switch {
		case rng.Float64() < s.WriteRatio:
			if rng.Float64() < s.TrimRatio {
				op = OpTrim
			} else {
				op = OpWrite
			}
		default:
			op = OpRead
		}

		pages := 1 + geometric(rng, s.AvgPages)
		var lpa uint64
		if rng.Float64() < s.SeqProb && prevEnd+uint64(pages) < s.Footprint {
			lpa = prevEnd
		} else if rng.Float64() < s.HotAccess {
			lpa = uint64(rng.Int63n(int64(hotPages)))
		} else {
			lpa = hotPages + uint64(rng.Int63n(maxInt64(int64(s.Footprint-hotPages), 1)))
		}
		if lpa+uint64(pages) > s.Footprint {
			lpa = s.Footprint - uint64(pages)
		}
		reqs = append(reqs, Request{At: at, Op: op, LPA: s.Base + lpa, Pages: pages})
		prevEnd = lpa + uint64(pages)
	}
	return reqs, nil
}

// geometric samples a geometric-ish extra length with mean avg-1.
func geometric(rng *rand.Rand, avg int) int {
	if avg <= 1 {
		return 0
	}
	p := 1.0 / float64(avg)
	n := 0
	for rng.Float64() > p && n < 64 {
		n++
	}
	return n
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Prolong extends a trace exactly as §5.2 describes: the trace is
// duplicated `times` times; in each duplication the logical addresses are
// shifted by a random offset (mod footprint) and the timestamps by the
// original trace's duration.
func Prolong(reqs []Request, times int, footprint uint64, seed int64) []Request {
	if len(reqs) == 0 || times <= 1 {
		return reqs
	}
	rng := rand.New(rand.NewSource(seed))
	span := reqs[len(reqs)-1].At + 1
	out := make([]Request, 0, len(reqs)*times)
	out = append(out, reqs...)
	for rep := 1; rep < times; rep++ {
		shift := uint64(rng.Int63n(int64(footprint)))
		base := vclock.Time(int64(span) * int64(rep))
		for _, r := range reqs {
			nr := r
			nr.At = base + r.At
			nr.LPA = (r.LPA + shift) % footprint
			if nr.LPA+uint64(nr.Pages) > footprint {
				nr.LPA = footprint - uint64(nr.Pages)
			}
			out = append(out, nr)
		}
	}
	return out
}
