package harness

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite the equivalence goldens from the current tree")

// equivalenceSkip lists experiments whose rendered tables cannot be
// goldened (the same set TestParallelMatchesSerial excludes). scaling and
// obs report host wall-clock columns that differ between any two runs.
// service does too, and its virtual latency columns also differ between
// runs of one binary: its concurrent tenants reach a shard in whatever
// order the Go scheduler gives, and an op queues in virtual time behind
// whatever reached its channel first (ROADMAP item 2). Its outcome digest
// is reproducible and has its own determinism test. Everything else is
// pure virtual time plus seeded randomness and must render
// byte-identically on any host forever.
var equivalenceSkip = map[string]bool{
	"scaling": true,
	"obs":     true,
	"service": true,
}

// TestExperimentEquivalence is the bit-identity contract of the
// simulator core: every registered deterministic experiment must render
// byte-identically to the committed golden. The goldens were generated
// before the struct-of-arrays/arena/batched-scheduler rewrite of the hot
// path, so a diff here means the rewrite changed simulated behaviour —
// which it must never do. Regenerate (only for a deliberate model
// change) with:
//
//	go test ./internal/harness -run TestExperimentEquivalence -update
func TestExperimentEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	if raceEnabled {
		t.Skip("byte-compare adds no race coverage; the race lane runs these paths via TestParallelMatchesSerial")
	}
	c := tiny()
	c.CrashSeeds = 2 // full 32-seed sweep is the nightly lane's job
	c.Workers = 1
	for _, name := range Names() {
		if equivalenceSkip[name] || strings.HasPrefix(name, "test-") {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tab, err := Run(name, c)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			got := tab.Render()
			path := filepath.Join("testdata", "equivalence", name+".golden")
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update after a deliberate model change): %v", err)
			}
			if got != string(want) {
				t.Errorf("rendered table differs from committed golden %s:\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
			}
		})
	}
}
