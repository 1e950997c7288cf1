package sweep

import (
	"os"
	"testing"
)

// FuzzParseSpec drives the spec parser with arbitrary text. Invariants:
// no panic; an accepted spec's String re-parses; and String is a fixed
// point of Parse∘String, which is what lets the spec embedded in a
// SWEEP_N.json artifact re-run exactly.
func FuzzParseSpec(f *testing.F) {
	smoke, err := os.ReadFile("../../ci/sweep_smoke.spec")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(smoke))
	for _, text := range []string{
		bigSpecText,
		smallSpecText,
		"sweep lhs-demo\nseed 42\nsample lhs 16\nworkload web usage 0.5 days 3 reqperday 500\naxis op range 0.07 0.45\naxis th range 0.05 0.4\n",
		"sweep defaults-only\naxis cohort 1 2 4\n",
		"sweep canon\naxis op 0.10 0.2\naxis minret 90m 3h\n",
		"sweep l\nseed 99\nsample lhs 12\naxis op range 0.1 0.4\naxis nfixed range 64 512\n",
		"sweep a\nsample lhs 2\naxis th range 0.1 NaN\n",
		"sweep a\naxis op banana 0.2\n",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		out := s.String()
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("String output does not re-parse: %v\noutput: %q", err, out)
		}
		if again.String() != out {
			t.Fatalf("String not a fixed point:\n%q\nvs\n%q", out, again.String())
		}
	})
}
