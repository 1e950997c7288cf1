package harness

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestCrashSweep(t *testing.T) {
	c := tiny()
	c.CrashSeeds = 2
	c.CrashCuts = 2
	tab, err := Run("crashsweep", c)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != c.CrashSeeds {
		t.Fatalf("want %d rows, got %d", c.CrashSeeds, len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "ok" {
			t.Fatalf("seed %s did not survive: %v", row[0], row)
		}
		if row[1] != "2" {
			t.Fatalf("seed %s: expected 2 cuts to fire, got %s", row[0], row[1])
		}
	}
}

// TestCrashSweepDeterministic pins the replayability contract: the same
// (config, seed) pair must produce byte-identical sweep results.
func TestCrashSweepDeterministic(t *testing.T) {
	c := tiny()
	c.CrashSeeds = 1
	c.CrashCuts = 2
	a, err := Run("crashsweep", c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("crashsweep", c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("sweep not deterministic:\n%s\nvs\n%s", a.Render(), b.Render())
	}
}

func TestCrashSweepEnvOverride(t *testing.T) {
	c := tiny()
	c.CrashSeeds = 4
	c.CrashCuts = 2
	t.Setenv("ALMANAC_CRASH_SEEDS", "1")
	t.Setenv("ALMANAC_CRASH_CUTS", "1")
	tab, err := Run("crashsweep", c)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || !strings.Contains(tab.Title, "1 seed(s) × 1 power cut(s)") {
		t.Fatalf("env override ignored: %q, %d rows", tab.Title, len(tab.Rows))
	}
}

// TestCrashSweepEnvOverrideRejectsGarbage: an override that is not a
// positive integer fails the sweep with an error naming the variable and
// the value, instead of running the default scale.
func TestCrashSweepEnvOverrideRejectsGarbage(t *testing.T) {
	for _, tc := range []struct{ name, value string }{
		{"ALMANAC_CRASH_SEEDS", "3 2"},
		{"ALMANAC_CRASH_SEEDS", "0"},
		{"ALMANAC_CRASH_CUTS", "two"},
		{"ALMANAC_CRASH_CUTS", "-1"},
	} {
		t.Run(tc.name+"="+tc.value, func(t *testing.T) {
			t.Setenv(tc.name, tc.value)
			_, err := Run("crashsweep", tiny())
			if err == nil || !strings.Contains(err.Error(), tc.name) || !strings.Contains(err.Error(), strconv.Quote(tc.value)) {
				t.Fatalf("%s=%q: err %v, want one naming the variable and the value", tc.name, tc.value, err)
			}
		})
	}
}

func TestSaveCrashArtifacts(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("ALMANAC_CRASH_ARTIFACTS", dir)
	c := tiny()
	dev, err := c.newTimeSSD(nil)
	if err != nil {
		t.Fatal(err)
	}
	saveCrashArtifacts(7, dev)
	img, err := os.ReadFile(filepath.Join(dir, "crashsweep-seed7.img"))
	if err != nil || len(img) == 0 {
		t.Fatalf("no image artifact: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "crashsweep-seed7.txt")); err != nil {
		t.Fatalf("no plan artifact: %v", err)
	}
}
