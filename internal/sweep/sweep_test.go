package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/vclock"
)

// microBase is a deliberately tiny device so a 256-point grid stays in
// test-budget territory: 2 ch × 1 chip × 1 plane × 8 blocks × 16 pages.
func microBase(t *testing.T) core.Config {
	t.Helper()
	fc := flash.DefaultConfig()
	fc.Channels = 2
	fc.ChipsPerChannel = 1
	fc.BlocksPerPlane = 8
	fc.PagesPerBlock = 16
	fc.PageSize = 2048
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 30 * vclock.Minute
	if err := cfg.Validate(); err != nil {
		t.Fatalf("micro base invalid: %v", err)
	}
	return cfg
}

// bigSpecText is the acceptance-criteria sweep: a 4-axis grid with 256
// points (>= the required 200). Retention-bound values are scaled to the
// micro device so high-retention points degrade, not wedge.
const bigSpecText = `sweep accept-grid
seed 7
sample grid
workload src usage 0.7 days 1 reqperday 60
axis op 0.1 0.2 0.28 0.45
axis minret 20m 40m 1h20m 2h40m
axis bfgroup 4 16 64 256
axis th 0.05 0.1 0.2 0.4
`

func mustParse(t *testing.T, text string) *Spec {
	t.Helper()
	s, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func TestSpecStringRoundTrip(t *testing.T) {
	texts := []string{
		bigSpecText,
		"sweep lhs-demo\nseed 42\nsample lhs 16\nworkload web usage 0.5 days 3 reqperday 500\naxis op range 0.07 0.45\naxis th range 0.05 0.4\n",
		"sweep defaults-only\naxis cohort 1 2 4\n",
	}
	for _, text := range texts {
		s := mustParse(t, text)
		again := mustParse(t, s.String())
		if s.String() != again.String() {
			t.Fatalf("String not a fixed point of Parse:\n%q\n%q", s.String(), again.String())
		}
	}
}

func TestParseCanonicalisesValues(t *testing.T) {
	// 0.10 and 90m are legal spellings but not canonical; Parse must
	// rewrite them so checkpoint keys never depend on author spelling.
	s := mustParse(t, "sweep canon\naxis op 0.10 0.2\naxis minret 90m 3h\n")
	if got := s.Axes[0].Values[0]; got != "0.1" {
		t.Fatalf("op value not canonicalised: %q", got)
	}
	if got := s.Axes[1].Values[0]; got != "1h30m0s" {
		t.Fatalf("minret value not canonicalised: %q", got)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct{ name, text string }{
		{"no name", "seed 3\naxis op 0.1 0.2\n"},
		{"dup name", "sweep a\nsweep b\naxis op 0.1 0.2\n"},
		{"unknown directive", "sweep a\nbogus 1\naxis op 0.1 0.2\n"},
		{"unknown knob", "sweep a\naxis warpdrive 1 2\n"},
		{"dup knob", "sweep a\naxis op 0.1 0.2\naxis op 0.3 0.4\n"},
		{"bad value", "sweep a\naxis op banana 0.2\n"},
		{"no axes", "sweep a\nseed 1\n"},
		{"range under grid", "sweep a\naxis op range 0.1 0.4\n"},
		{"values under lhs", "sweep a\nsample lhs 8\naxis op 0.1 0.2\n"},
		{"inverted range", "sweep a\nsample lhs 8\naxis op range 0.4 0.1\n"},
		{"half range", "sweep a\naxis op range 0.1\n"},
		{"zero lhs samples", "sweep a\nsample lhs 0\naxis op range 0.1 0.4\n"},
		{"bad usage", "sweep a\nworkload src usage 1.5 days 2 reqperday 10\naxis op 0.1 0.2\n"},
		{"bad days", "sweep a\nworkload src usage 0.5 days 0 reqperday 10\naxis op 0.1 0.2\n"},
		{"name with spaces impossible via parse but blank", "sweep \naxis op 0.1 0.2\n"},
		{"NaN value", "sweep a\naxis th NaN\n"},
		{"NaN op value", "sweep a\naxis op NaN\n"},
		{"+Inf value", "sweep a\naxis th 0.1 +Inf\n"},
		{"NaN range bound", "sweep a\nsample lhs 2\naxis th range 0.1 NaN\n"},
		{"-Inf range bound", "sweep a\nsample lhs 2\naxis op range -Inf 0.4\n"},
	}
	for _, c := range cases {
		if _, err := Parse(c.text); err == nil {
			t.Errorf("%s: Parse accepted %q", c.name, c.text)
		}
	}
}

func TestGridEnumeration(t *testing.T) {
	s := mustParse(t, "sweep g\naxis cohort 1 2\naxis nfixed 64 128 256\n")
	pts, err := s.Points(microBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("got %d points, want 6", len(pts))
	}
	// First axis slowest.
	wantOrder := [][]string{
		{"1", "64"}, {"1", "128"}, {"1", "256"},
		{"2", "64"}, {"2", "128"}, {"2", "256"},
	}
	for i, p := range pts {
		if p.Index != i {
			t.Fatalf("point %d has Index %d", i, p.Index)
		}
		for j, v := range wantOrder[i] {
			if p.Values[j] != v {
				t.Fatalf("point %d values %v, want %v", i, p.Values, wantOrder[i])
			}
		}
	}
}

func TestLHSSampling(t *testing.T) {
	text := "sweep l\nseed 99\nsample lhs 12\naxis op range 0.1 0.4\naxis nfixed range 64 512\n"
	s := mustParse(t, text)
	base := microBase(t)
	pts1, err := s.Points(base)
	if err != nil {
		t.Fatal(err)
	}
	pts2, err := mustParse(t, text).Points(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts1) != len(pts2) {
		t.Fatalf("LHS not deterministic: %d vs %d points", len(pts1), len(pts2))
	}
	for i := range pts1 {
		if pts1[i].Key != pts2[i].Key {
			t.Fatalf("LHS point %d differs across expansions", i)
		}
	}
	// Latin-hypercube property: n samples, every axis value unique (one
	// per stratum) unless rounding collapsed strata.
	if len(pts1) != 12 {
		t.Fatalf("got %d LHS points, want 12", len(pts1))
	}
	opSeen := map[string]bool{}
	for _, p := range pts1 {
		opSeen[p.Values[0]] = true
	}
	if len(opSeen) != 12 {
		t.Fatalf("op axis reused a stratum: %d unique of 12", len(opSeen))
	}
	// A different seed must produce a different design.
	other := mustParse(t, strings.Replace(text, "seed 99", "seed 100", 1))
	pts3, err := other.Points(base)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range pts1 {
		if pts1[i].Key != pts3[i].Key {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed change did not change the LHS design")
	}
}

// TestLHSPinned pins one seeded Latin-hypercube design over an integer
// knob (rounded), a float knob and a duration knob (truncated to the
// nanosecond): the exact sample tuples and config keys, so any change to
// how a knob value is read, interpolated or spelled shows here.
func TestLHSPinned(t *testing.T) {
	s := mustParse(t, "sweep lhs-pin\nseed 11\nsample lhs 5\n"+
		"axis mapcache range 8 200\naxis th range 0.05 0.4\naxis idlethresh range 1ms 50ms\n")
	pts, err := s.Points(microBase(t))
	if err != nil {
		t.Fatal(err)
	}
	const key = "channels=2 chips=1 planes=1 blocks=8 pages=16 pagesize=2048 " +
		"readlat=75µs proglat=750µs eraselat=3.8ms op=0.15 gclow=3 gchigh=6 " +
		"weardelta=32 wearevery=64 mapcache=%s minret=30m0s th=%s nfixed=64 " +
		"deltacost=120µs idlethresh=%s idlealpha=0.5 bfcap=16 bffp=0.001 " +
		"bfgroup=16 cohort=1 key= nocompress=false noidlecompress=false"
	want := [][]string{
		{"128", "0.05874243939330771", "15.407446ms"},
		{"77", "0.39953045246263647", "21.382269ms"},
		{"120", "0.2589314658472862", "42.827277ms"},
		{"26", "0.141750588879146", "6.787195ms"},
		{"173", "0.3039672948883308", "34.937258ms"},
	}
	if len(pts) != len(want) {
		t.Fatalf("got %d points, want %d", len(pts), len(want))
	}
	for i, p := range pts {
		if strings.Join(p.Values, " ") != strings.Join(want[i], " ") {
			t.Errorf("point %d values %q, want %q", i, p.Values, want[i])
		}
		if k := fmt.Sprintf(key, want[i][0], want[i][1], want[i][2]); p.Key != k {
			t.Errorf("point %d key\n got %s\nwant %s", i, p.Key, k)
		}
	}
}

func TestPointsDedupe(t *testing.T) {
	// Two spellings that canonicalise differently but apply identically
	// cannot happen post-Parse; instead force duplicates via a knob whose
	// values repeat after clamping — here literally identical values are
	// rejected earlier, so build the spec by hand (package-internal test).
	s := &Spec{Name: "dup", Sampling: "grid", Workload: "src", Usage: 0.5, Days: 1, ReqPerDay: 10,
		Axes: []Axis{{Knob: "cohort", Values: []string{"2", "2"}}}}
	pts, err := s.Points(microBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("duplicate configs not deduped: %d points", len(pts))
	}
}

func runArtifact(t *testing.T, spec *Spec, base core.Config, workers int, checkpoint string) ([]byte, *Results) {
	t.Helper()
	eng := &Engine{Spec: spec, Base: base, Workers: workers, Checkpoint: checkpoint}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run (workers=%d): %v", workers, err)
	}
	b, err := res.Artifact().Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b, res
}

// TestSweepDeterministic is the ISSUE acceptance gate: a >=200-point
// grid over >=4 axes completes, the artifact and Pareto table are
// byte-identical at worker counts 1 and N, and every point key
// round-trips through core.ParseConfig.
func TestSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("256-point grid")
	}
	spec := mustParse(t, bigSpecText)
	base := microBase(t)

	serial, resSerial := runArtifact(t, spec, base, 1, "")
	par, resPar := runArtifact(t, mustParse(t, bigSpecText), base, 8, "")
	if !bytes.Equal(serial, par) {
		t.Fatal("artifact differs between -j 1 and -j 8")
	}
	if len(resSerial.Points) < 200 {
		t.Fatalf("only %d points, acceptance needs >= 200", len(resSerial.Points))
	}
	if len(spec.Axes) < 4 {
		t.Fatalf("only %d axes, acceptance needs >= 4", len(spec.Axes))
	}

	sh, sr := resSerial.TableFor(resSerial.Pareto())
	ph, pr := resPar.TableFor(resPar.Pareto())
	if strings.Join(sh, "|") != strings.Join(ph, "|") || len(sr) != len(pr) {
		t.Fatal("Pareto table differs between worker counts")
	}
	for i := range sr {
		if strings.Join(sr[i], "|") != strings.Join(pr[i], "|") {
			t.Fatalf("Pareto row %d differs between worker counts", i)
		}
	}
	if len(sr) == 0 {
		t.Fatal("empty Pareto frontier")
	}

	// Every emitted config must round-trip through the canonical codec.
	for _, p := range resSerial.Points {
		cfg, err := core.ParseConfig(p.Key)
		if err != nil {
			t.Fatalf("ParseConfig(%q): %v", p.Key, err)
		}
		if cfg.String() != p.Key {
			t.Fatalf("config key not a round-trip fixed point:\n%s\n%s", p.Key, cfg.String())
		}
	}

	// Pareto members must be actual points and non-dominated.
	keys := map[string]Metrics{}
	for _, p := range resSerial.Points {
		keys[p.Key] = p.Metrics
	}
	for _, p := range resSerial.Pareto() {
		m, ok := keys[p.Key]
		if !ok {
			t.Fatalf("Pareto key %q not in point set", p.Key)
		}
		for _, q := range resSerial.Points {
			if q.Key != p.Key && dominates(q.Metrics, m) {
				t.Fatalf("Pareto point %q is dominated by %q", p.Key, q.Key)
			}
		}
	}
}

// smallSpecText keeps checkpoint/resume tests cheap: 3x3 grid.
const smallSpecText = `sweep ckpt-grid
seed 3
workload src usage 0.6 days 1 reqperday 40
axis op 0.1 0.2 0.4
axis th 0.05 0.1 0.3
`

// TestCheckpointResume kills a sweep partway (StopAfter), then resumes
// from the checkpoint and requires the final artifact to be
// byte-identical to an uninterrupted run.
func TestCheckpointResume(t *testing.T) {
	base := microBase(t)
	want, _ := runArtifact(t, mustParse(t, smallSpecText), base, 1, "")

	ck := filepath.Join(t.TempDir(), "sweep.ckpt")
	eng := &Engine{Spec: mustParse(t, smallSpecText), Base: base, Workers: 2, Checkpoint: ck, StopAfter: 4}
	if _, err := eng.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("truncated run: err = %v, want ErrStopped", err)
	}
	lines := checkpointLines(t, ck)
	if len(lines) != 4 {
		t.Fatalf("checkpoint holds %d lines after StopAfter=4, want 4", len(lines))
	}

	// Simulate a kill mid-append: a torn, unparsable final line must be
	// ignored on resume.
	f, err := os.OpenFile(ck, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	got, res := runArtifact(t, mustParse(t, smallSpecText), base, 1, ck)
	if !bytes.Equal(want, got) {
		t.Fatal("resumed artifact differs from uninterrupted run")
	}
	if len(res.Points) != 9 {
		t.Fatalf("resumed run has %d points, want 9", len(res.Points))
	}
}

// TestCheckpointFullResume re-runs over a complete checkpoint: nothing
// executes (every point is already done) and the artifact still matches.
func TestCheckpointFullResume(t *testing.T) {
	base := microBase(t)
	ck := filepath.Join(t.TempDir(), "sweep.ckpt")
	want, _ := runArtifact(t, mustParse(t, smallSpecText), base, 2, ck)
	before := checkpointLines(t, ck)
	got, _ := runArtifact(t, mustParse(t, smallSpecText), base, 1, ck)
	if !bytes.Equal(want, got) {
		t.Fatal("re-run over complete checkpoint changed the artifact")
	}
	if after := checkpointLines(t, ck); len(after) != len(before) {
		t.Fatalf("complete re-run appended lines: %d -> %d", len(before), len(after))
	}
}

func TestCheckpointMidFileCorruption(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := os.WriteFile(ck, []byte("not json at all\n{\"key\":\"x\",\"values\":null,\"metrics\":{}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Spec: mustParse(t, smallSpecText), Base: microBase(t), Checkpoint: ck}
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "unparsable non-final line") {
		t.Fatalf("mid-file corruption not reported: err = %v", err)
	}
}

func checkpointLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, l := range strings.Split(string(b), "\n") {
		if l != "" {
			out = append(out, l)
		}
	}
	return out
}

func TestArtifactFileRoundTrip(t *testing.T) {
	base := microBase(t)
	_, res := runArtifact(t, mustParse(t, smallSpecText), base, 0, "")
	a := res.Artifact()
	path := filepath.Join(t.TempDir(), "SWEEP_test.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ArtifactSchema || back.Name != a.Name || back.Seed != a.Seed || back.Spec != a.Spec || len(back.Points) != len(a.Points) {
		t.Fatal("artifact did not survive the file round trip")
	}
	// The embedded spec must itself re-parse: the artifact is the
	// experiment.
	if _, err := Parse(back.Spec); err != nil {
		t.Fatalf("embedded spec does not re-parse: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
}

func TestDefaultSpec(t *testing.T) {
	s := DefaultSpec(1, 4, 2, 100)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Axes) != 4 {
		t.Fatalf("default spec has %d axes, want 4", len(s.Axes))
	}
	pts, err := s.Points(microBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 256 {
		t.Fatalf("full default grid has %d points, want 256", len(pts))
	}
	if _, err := Parse(s.String()); err != nil {
		t.Fatalf("default spec text does not re-parse: %v", err)
	}
	// Clamping.
	if got := len(DefaultSpec(1, 0, 2, 100).Axes[0].Values); got != 2 {
		t.Fatalf("valuesPerAxis<2 not clamped: %d", got)
	}
	if got := len(DefaultSpec(1, 9, 2, 100).Axes[0].Values); got != 4 {
		t.Fatalf("valuesPerAxis>4 not clamped: %d", got)
	}
}

func TestKnobsDocumented(t *testing.T) {
	ks := Knobs()
	if len(ks) != len(knobs) {
		t.Fatalf("Knobs() returned %d entries, want %d", len(ks), len(knobs))
	}
	for i, k := range ks {
		if k[1] == "" {
			t.Errorf("knob %q undocumented", k[0])
		}
		// Latin-hypercube sampling sets every knob by number.
		var c core.Config
		if err := c.SetFieldNumber(k[0], 1); err != nil {
			t.Errorf("knob %q: %v", k[0], err)
		}
		if i > 0 && ks[i-1][0] >= k[0] {
			t.Errorf("Knobs() unsorted at %q", k[0])
		}
	}
}

func TestDominates(t *testing.T) {
	a := Metrics{GCOverhead: 1, WearMax: 10, P99WriteMS: 5, RetentionDays: 3}
	b := Metrics{GCOverhead: 2, WearMax: 10, P99WriteMS: 5, RetentionDays: 3}
	if !dominates(a, b) || dominates(b, a) {
		t.Fatal("strictly-better GC overhead must dominate")
	}
	if dominates(a, a) {
		t.Fatal("a point must not dominate itself (no strict improvement)")
	}
	c := Metrics{GCOverhead: 0.5, WearMax: 20, P99WriteMS: 5, RetentionDays: 3}
	if dominates(a, c) || dominates(c, a) {
		t.Fatal("trade-off points must be mutually non-dominated")
	}
	d := Metrics{GCOverhead: 1, WearMax: 10, P99WriteMS: 5, RetentionDays: 4}
	if !dominates(d, a) {
		t.Fatal("higher retention at equal cost must dominate")
	}
}
