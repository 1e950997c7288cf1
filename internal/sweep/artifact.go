package sweep

import (
	"encoding/json"
	"os"
)

// ArtifactSchema identifies the committed sweep artifact format: a
// SWEEP_N.json is regenerated by CI's sweep-smoke job and byte-compared,
// which works because every field below is derived from virtual time and
// seeded randomness only.
const ArtifactSchema = "almanac-sweep/v1"

// Artifact is the machine-readable result of one sweep.
type Artifact struct {
	Schema string `json:"schema"`
	Name   string `json:"name"`
	Seed   int64  `json:"seed"`
	// Spec is the canonical spec text: the experiment is embedded in its
	// artifact, so a committed SWEEP_N.json re-runs without the original
	// spec file.
	Spec string `json:"spec"`
	// Points holds every design point in enumeration order, keyed by the
	// canonical core.Config encoding.
	Points []PointResult `json:"points"`
	// Pareto lists the keys of the non-dominated points, in enumeration
	// order.
	Pareto []string `json:"pareto"`
}

// Artifact reduces the results to their committed form.
func (r *Results) Artifact() Artifact {
	a := Artifact{
		Schema: ArtifactSchema,
		Name:   r.Spec.Name,
		Seed:   r.Spec.Seed,
		Spec:   r.Spec.String(),
		Points: r.Points,
	}
	for _, p := range r.Pareto() {
		a.Pareto = append(a.Pareto, p.Key)
	}
	return a
}

// Encode renders the artifact as deterministic, newline-terminated JSON.
func (a Artifact) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the encoded artifact with the same atomic
// tmp-then-rename discipline the daemon uses for shard images: a killed
// writer never leaves a half-written artifact behind.
func (a Artifact) WriteFile(path string) error {
	b, err := a.Encode()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
