package sweep

import (
	"fmt"
	"math/rand"

	"almanac/internal/core"
)

// Point is one design point: the axis values that define it, the
// concrete configuration they produce over the engine's base config, and
// the canonical key every downstream surface (checkpoint, artifact,
// Pareto tables) uses to refer to it.
type Point struct {
	Index  int      // position in enumeration order
	Values []string // one canonical value per spec axis, in axis order
	Config core.Config
	Key    string // Config.String(): the one unambiguous serialization
}

// Points expands the spec into design points over base. Enumeration is
// deterministic: grid sampling walks the cartesian product with the
// first axis slowest, and Latin-hypercube sampling derives its strata
// permutations from the spec seed alone. Duplicate keys (distinct
// samples that round to the same configuration) keep only their first
// occurrence, so keys are unique within a sweep. Every returned config
// passed Validate.
func (s *Spec) Points(base core.Config) ([]Point, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var valueTuples [][]string
	switch s.Sampling {
	case "grid":
		valueTuples = gridTuples(s.Axes)
	case "lhs":
		valueTuples = lhsTuples(s.Axes, s.Samples, s.Seed)
	}
	points := make([]Point, 0, len(valueTuples))
	seen := make(map[string]bool, len(valueTuples))
	for _, tuple := range valueTuples {
		cfg := base
		// The base retention key is shared, not cloned: knobs never touch
		// it and configs are otherwise value types.
		for i, a := range s.Axes {
			if err := cfg.SetField(a.Knob, tuple[i]); err != nil {
				return nil, fmt.Errorf("sweep: axis %q value %q: %v", a.Knob, tuple[i], err)
			}
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: point %v yields invalid config: %v", tuple, err)
		}
		key := cfg.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		points = append(points, Point{Index: len(points), Values: tuple, Config: cfg, Key: key})
	}
	return points, nil
}

// gridTuples walks the cartesian product of explicit axis values, first
// axis slowest — the order a nested-loop sweep would produce.
func gridTuples(axes []Axis) [][]string {
	total := 1
	for _, a := range axes {
		total *= len(a.Values)
	}
	out := make([][]string, 0, total)
	tuple := make([]string, len(axes))
	var walk func(depth int)
	walk = func(depth int) {
		if depth == len(axes) {
			out = append(out, append([]string(nil), tuple...))
			return
		}
		for _, v := range axes[depth].Values {
			tuple[depth] = v
			walk(depth + 1)
		}
	}
	walk(0)
	return out
}

// lhsTuples draws n Latin-hypercube samples: each axis's range is cut
// into n equal strata, each stratum is used exactly once per axis, and
// the per-axis stratum orders are independent seeded permutations. The
// sample sits at a seeded offset within its stratum. All randomness
// flows from the spec seed, so the design is a pure function of the
// spec.
func lhsTuples(axes []Axis, n int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	perAxis := make([][]string, len(axes))
	for ai, a := range axes {
		lo, _ := number(a.Knob, a.Min)
		hi, _ := number(a.Knob, a.Max)
		perm := rng.Perm(n)
		vals := make([]string, n)
		var c core.Config
		for i := 0; i < n; i++ {
			stratum := float64(perm[i])
			pos := (stratum + rng.Float64()) / float64(n)
			// Every knob is numeric (TestKnobsDocumented), so this sets.
			_ = c.SetFieldNumber(a.Knob, lo+pos*(hi-lo))
			vals[i] = c.Field(a.Knob)
		}
		perAxis[ai] = vals
	}
	out := make([][]string, n)
	for i := 0; i < n; i++ {
		tuple := make([]string, len(axes))
		for ai := range axes {
			tuple[ai] = perAxis[ai][i]
		}
		out[i] = tuple
	}
	return out
}
