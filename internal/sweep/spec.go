// Package sweep is the design-space exploration engine: it expands a
// declarative parameter-space specification into concrete TimeSSD
// configurations, runs one deterministic workload per configuration
// across a host worker pool, extracts comparison metrics from
// internal/obs snapshots, and reduces the result set to Pareto-frontier
// tables and a machine-readable artifact.
//
// Almanac's headline numbers — retention vs GC overhead vs wear under
// Eq. 1 — are single points in a large space (over-provisioning,
// retention bound, Bloom segmentation, cohort size, cache sizing, …).
// EagleTree's argument (PAPERS.md) is that SSD algorithm research lives
// or dies on systematic exploration of exactly this space; SimpleSSD's
// is that the configuration surface must be declarative so experiments
// are scriptable and reproducible. This package is both arguments
// applied to the simulator: the spec text is the experiment, and the
// same spec plus the same seed produces a byte-identical artifact at any
// worker count, on any host.
//
// Every design point is keyed by the canonical text encoding of its
// core.Config (core.ParseConfig / Config.String): checkpoint rows,
// artifact rows, and resume matching all use that one serialization, so
// a sweep killed mid-run resumes from its checkpoint file — possibly
// under a different binary — to the same artifact bytes.
package sweep

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"almanac/internal/core"
)

// Axis is one swept dimension: a named knob and either an explicit value
// list (grid sampling) or an inclusive numeric range (Latin-hypercube
// sampling). Values are canonical per-knob strings ("0.15", "12h0m0s",
// "64") so an axis serializes unambiguously into the spec text.
type Axis struct {
	Knob   string
	Values []string // explicit grid values; empty when Min/Max is set
	Min    string   // range lower bound (LHS); empty when Values is set
	Max    string   // range upper bound
}

// Spec is a parameter-space specification: workload, sampling strategy,
// and the swept axes. Construct specs with Parse (or, inside the sweep
// and harness layers, as literals); the almalint sweepspec rule keeps
// every other package on the Parse path so specs stay serialisable and
// CI-replayable, exactly like fault plans.
type Spec struct {
	Name      string
	Seed      int64
	Sampling  string // "grid" or "lhs"
	Samples   int    // LHS sample count (0 for grid)
	Workload  string // trace workload name (trace.NamedSpec)
	Usage     float64
	Days      int
	ReqPerDay int
	Axes      []Axis
}

// knobs is the sweepable surface over core.Config: each name is a
// core.Config key, set through Config.SetField and spelled as
// Config.Field spells it, so the sweep names no field and spells no
// value itself. Geometry is fixed by the engine's base config — sweeping
// device size changes the workload footprint, which compares devices on
// different problems.
var knobs = map[string]string{
	"op":         "over-provisioning ratio (ftl.Params.OPRatio)",
	"minret":     "guaranteed retention lower bound (Config.MinRetention)",
	"th":         "Eq. 1 GC-overhead threshold (Config.TH)",
	"bfgroup":    "Bloom page-group granularity N (Config.BFGroup)",
	"bfcap":      "Bloom segment capacity (Config.BFCapacity)",
	"cohort":     "delta-block cohort size (Config.CohortSegments)",
	"mapcache":   "demand-paged AMT slots (ftl.Params.MappingCacheSlots)",
	"nfixed":     "Eq. 1 estimation period in writes (Config.NFixed)",
	"idlethresh": "background-compression idle threshold (Config.IdleThreshold)",
}

// canonical respells value as core spells knob's field, or returns it
// unchanged when the field cannot hold it (Validate reports that).
func canonical(knob, value string) string {
	var c core.Config
	if c.SetField(knob, value) != nil {
		return value
	}
	return c.Field(knob)
}

// number reads value as knob's field holds it — integers and floats as
// themselves, durations in nanoseconds — for range checks and
// Latin-hypercube interpolation. A value the field cannot hold, or one
// that is not finite, is an error.
func number(knob, value string) (float64, error) {
	var c core.Config
	if err := c.SetField(knob, value); err != nil {
		return 0, err
	}
	text := c.Field(knob)
	x, err := strconv.ParseFloat(text, 64)
	if err != nil {
		d, _ := time.ParseDuration(text)
		x = float64(d)
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, fmt.Errorf("%s is not finite", text)
	}
	return x, nil
}

// Knobs returns the sweepable knob names and their documentation, sorted
// by name.
func Knobs() [][2]string {
	names := make([]string, 0, len(knobs))
	for name := range knobs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([][2]string, len(names))
	for i, name := range names {
		out[i] = [2]string{name, knobs[name]}
	}
	return out
}

// Validate checks the spec is well-formed: known knobs, parseable values,
// a known sampling strategy, and a runnable workload description.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("sweep: spec has no name")
	}
	if strings.ContainsAny(s.Name, " \t\n") {
		return fmt.Errorf("sweep: spec name %q contains whitespace", s.Name)
	}
	switch s.Sampling {
	case "grid":
		if s.Samples != 0 {
			return fmt.Errorf("sweep: grid sampling takes no sample count")
		}
	case "lhs":
		if s.Samples < 1 {
			return fmt.Errorf("sweep: lhs sampling needs a positive sample count, got %d", s.Samples)
		}
	default:
		return fmt.Errorf("sweep: unknown sampling strategy %q (grid|lhs)", s.Sampling)
	}
	if s.Workload == "" {
		return fmt.Errorf("sweep: no workload")
	}
	if s.Usage <= 0 || s.Usage >= 1 {
		return fmt.Errorf("sweep: usage %g outside (0,1)", s.Usage)
	}
	if s.Days < 1 {
		return fmt.Errorf("sweep: days must be at least 1, got %d", s.Days)
	}
	if s.ReqPerDay < 1 {
		return fmt.Errorf("sweep: reqperday must be at least 1, got %d", s.ReqPerDay)
	}
	if len(s.Axes) == 0 {
		return fmt.Errorf("sweep: no axes")
	}
	seen := map[string]bool{}
	for _, a := range s.Axes {
		if _, ok := knobs[a.Knob]; !ok {
			return fmt.Errorf("sweep: unknown knob %q", a.Knob)
		}
		if seen[a.Knob] {
			return fmt.Errorf("sweep: knob %q swept twice", a.Knob)
		}
		seen[a.Knob] = true
		switch {
		case len(a.Values) > 0:
			if a.Min != "" || a.Max != "" {
				return fmt.Errorf("sweep: axis %q mixes explicit values and a range", a.Knob)
			}
			if s.Sampling == "lhs" {
				return fmt.Errorf("sweep: axis %q lists explicit values but sampling is lhs (use range)", a.Knob)
			}
			for _, v := range a.Values {
				if _, err := number(a.Knob, v); err != nil {
					return fmt.Errorf("sweep: axis %q value %q: %v", a.Knob, v, err)
				}
			}
		case a.Min != "" && a.Max != "":
			if s.Sampling == "grid" {
				return fmt.Errorf("sweep: axis %q gives a range but sampling is grid (list values)", a.Knob)
			}
			lo, err := number(a.Knob, a.Min)
			if err != nil {
				return fmt.Errorf("sweep: axis %q min %q: %v", a.Knob, a.Min, err)
			}
			hi, err := number(a.Knob, a.Max)
			if err != nil {
				return fmt.Errorf("sweep: axis %q max %q: %v", a.Knob, a.Max, err)
			}
			if hi < lo {
				return fmt.Errorf("sweep: axis %q range inverted (%s > %s)", a.Knob, a.Min, a.Max)
			}
		default:
			return fmt.Errorf("sweep: axis %q has neither values nor a full range", a.Knob)
		}
	}
	return nil
}

// String renders the canonical spec text. Parse(s.String()) round-trips
// for every valid spec, and String is a fixed point of Parse∘String, so
// the spec embedded in a SWEEP_N.json artifact re-runs exactly.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep %s\n", s.Name)
	fmt.Fprintf(&b, "seed %d\n", s.Seed)
	if s.Sampling == "lhs" {
		fmt.Fprintf(&b, "sample lhs %d\n", s.Samples)
	} else {
		fmt.Fprintf(&b, "sample grid\n")
	}
	fmt.Fprintf(&b, "workload %s usage %s days %d reqperday %d\n",
		s.Workload, strconv.FormatFloat(s.Usage, 'g', -1, 64), s.Days, s.ReqPerDay)
	for _, a := range s.Axes {
		if len(a.Values) > 0 {
			fmt.Fprintf(&b, "axis %s %s\n", a.Knob, strings.Join(a.Values, " "))
		} else {
			fmt.Fprintf(&b, "axis %s range %s %s\n", a.Knob, a.Min, a.Max)
		}
	}
	return b.String()
}

// Parse decodes a spec from its text form. Lines are `key args…`; blank
// lines and #-comments are skipped. The returned spec is validated.
func Parse(text string) (*Spec, error) {
	s := &Spec{Sampling: "grid", Usage: 0.8, Days: 2, ReqPerDay: 200, Workload: "src"}
	sawName := false
	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		bad := func(format string, args ...any) error {
			return fmt.Errorf("sweep: line %d: %s", ln+1, fmt.Sprintf(format, args...))
		}
		switch f[0] {
		case "sweep":
			if len(f) != 2 {
				return nil, bad("want `sweep <name>`")
			}
			if sawName {
				return nil, bad("duplicate sweep line")
			}
			s.Name = f[1]
			sawName = true
		case "seed":
			if len(f) != 2 {
				return nil, bad("want `seed <n>`")
			}
			n, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return nil, bad("bad seed %q: %v", f[1], err)
			}
			s.Seed = n
		case "sample":
			switch {
			case len(f) == 2 && f[1] == "grid":
				s.Sampling, s.Samples = "grid", 0
			case len(f) == 3 && f[1] == "lhs":
				n, err := strconv.Atoi(f[2])
				if err != nil {
					return nil, bad("bad lhs sample count %q: %v", f[2], err)
				}
				s.Sampling, s.Samples = "lhs", n
			default:
				return nil, bad("want `sample grid` or `sample lhs <n>`")
			}
		case "workload":
			if len(f) != 8 || f[2] != "usage" || f[4] != "days" || f[6] != "reqperday" {
				return nil, bad("want `workload <name> usage <f> days <n> reqperday <n>`")
			}
			s.Workload = f[1]
			u, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				return nil, bad("bad usage %q: %v", f[3], err)
			}
			s.Usage = u
			d, err := strconv.Atoi(f[5])
			if err != nil {
				return nil, bad("bad days %q: %v", f[5], err)
			}
			s.Days = d
			r, err := strconv.Atoi(f[7])
			if err != nil {
				return nil, bad("bad reqperday %q: %v", f[7], err)
			}
			s.ReqPerDay = r
		case "axis":
			if len(f) < 3 {
				return nil, bad("want `axis <knob> <values…>` or `axis <knob> range <min> <max>`")
			}
			ax := Axis{Knob: f[1]}
			if f[2] == "range" {
				if len(f) != 5 {
					return nil, bad("want `axis <knob> range <min> <max>`")
				}
				ax.Min, ax.Max = f[3], f[4]
			} else {
				ax.Values = append(ax.Values, f[2:]...)
			}
			s.Axes = append(s.Axes, ax)
		default:
			return nil, bad("unknown directive %q", f[0])
		}
	}
	if !sawName {
		return nil, fmt.Errorf("sweep: spec has no `sweep <name>` line")
	}
	// Canonicalise axis values so String output, point values, and
	// checkpoint keys never depend on how the author spelled a number.
	for i := range s.Axes {
		a := &s.Axes[i]
		for j, v := range a.Values {
			a.Values[j] = canonical(a.Knob, v)
		}
		a.Min, a.Max = canonical(a.Knob, a.Min), canonical(a.Knob, a.Max)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
