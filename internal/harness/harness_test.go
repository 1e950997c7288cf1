package harness

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// tiny returns a configuration small enough that each experiment runs in
// well under a second; the assertions below check shapes, not magnitudes.
func tiny() Config {
	c := Quick()
	c.ReqPerDay = 300
	c.Days = 3
	c.Fig8MSRLens = []int{7, 14}
	c.Fig8FIULens = []int{7, 14}
	c.IOZoneOps = 150
	c.PostMarkTxns = 80
	c.OLTPTxns = 60
	c.OLTPTablePages = 128
	c.RansomScale = 0.1
	c.Fig11Commits = 25
	return c
}

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(tab.Rows[row][col], "+"), "%"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow("1", "2")
	out := tab.Render()
	for _, want := range []string{"T\n", "a", "bb", "1", "2", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableRenderZeroRows(t *testing.T) {
	tab := &Table{Title: "empty", Header: []string{"col-a", "col-b"}, Notes: []string{"nothing ran"}}
	out := tab.Render()
	for _, want := range []string{"empty\n", "col-a", "col-b", "note: nothing ran"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Entirely empty table: title only, no panic.
	bare := &Table{Title: "bare"}
	if got := bare.Render(); !strings.HasPrefix(got, "bare\n") {
		t.Fatalf("bare render: %q", got)
	}
}

func TestTableRenderRagged(t *testing.T) {
	tab := &Table{Title: "ragged", Header: []string{"a", "b"}}
	tab.AddRow("only-one")
	tab.AddRow("1", "2", "overflow-cell")
	tab.AddRow()
	out := tab.Render()
	for _, want := range []string{"only-one", "overflow-cell", "1", "2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Alignment: the overflow column's width must cover its widest cell.
	lines := strings.Split(out, "\n")
	if len(lines) < 6 {
		t.Fatalf("unexpected line count:\n%s", out)
	}
}

func TestFigures6And7(t *testing.T) {
	pairs, err := tiny().runPairs()
	if err != nil {
		t.Fatal(err)
	}
	f6, f7 := figure6From(pairs), figure7From(pairs)
	// 12 workloads × 2 usages.
	if len(f6.Rows) != 24 || len(f7.Rows) != 24 {
		t.Fatalf("row counts: %d, %d", len(f6.Rows), len(f7.Rows))
	}
	for i := range f6.Rows {
		reg := cell(t, f6, i, 2)
		tsd := cell(t, f6, i, 3)
		if reg <= 0 || tsd <= 0 {
			t.Fatalf("fig6 row %d: non-positive response times", i)
		}
		// TimeSSD should be within a broad envelope of the regular SSD —
		// the paper reports ≤12% overhead; allow simulator slack.
		if tsd > reg*2 {
			t.Fatalf("fig6 row %v: TimeSSD response %.3f more than doubles regular %.3f",
				f6.Rows[i][:2], tsd, reg)
		}
	}
	for i := range f7.Rows {
		reg := cell(t, f7, i, 2)
		tsd := cell(t, f7, i, 3)
		if reg < 1 || tsd < 1 {
			t.Fatalf("fig7 row %d: WA below 1", i)
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	c := tiny()
	tab, err := Figure8(c)
	if err != nil {
		t.Fatal(err)
	}
	// (7 MSR × 2 lens + 5 FIU × 2 lens) × 2 usages.
	want := (7*2 + 5*2) * 2
	if len(tab.Rows) != want {
		t.Fatalf("%d rows, want %d", len(tab.Rows), want)
	}
	for i, row := range tab.Rows {
		ret := cell(t, tab, i, 4)
		traceLen, _ := strconv.Atoi(row[3])
		// The generated trace's actual span can overshoot its nominal
		// length (randomised idle gaps), so allow 50% slack.
		if ret <= 0 || ret > float64(traceLen)*1.5+1 {
			t.Fatalf("row %v: retention %.1f implausible for %d-day trace", row, ret, traceLen)
		}
	}
}

func TestFigure9IOZoneShape(t *testing.T) {
	tab, err := Figure9IOZone(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		f2fs, tsd := cell(t, tab, i, 2), cell(t, tab, i, 3)
		switch row[0] {
		case "RandomWrite":
			// The paper's headline: TimeSSD ≈3.3× Ext4, F2FS between.
			if tsd < 1.5 {
				t.Fatalf("random write: TimeSSD only %.2fx Ext4", tsd)
			}
			if f2fs < 1.0 {
				t.Fatalf("random write: F2FS %.2fx below Ext4", f2fs)
			}
		case "SeqRead", "RandomRead":
			// Reads comparable everywhere (within ±35%).
			for _, v := range []float64{f2fs, tsd} {
				if v < 0.65 || v > 1.35 {
					t.Fatalf("%s: read speedup %.2f not comparable", row[0], v)
				}
			}
		}
	}
}

func TestFigure9OLTPShape(t *testing.T) {
	tab, err := Figure9OLTP(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		f2fs, tsd := cell(t, tab, i, 2), cell(t, tab, i, 3)
		if tsd <= 1.0 {
			t.Fatalf("%s: TimeSSD %.2fx not faster than Ext4 data journaling", row[0], tsd)
		}
		if tsd < f2fs*0.8 {
			t.Fatalf("%s: TimeSSD %.2fx far below F2FS %.2fx", row[0], tsd, f2fs)
		}
	}
}

func TestFigure10Shape(t *testing.T) {
	tab, err := Figure10(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 13 {
		t.Fatalf("%d families", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if row[4] != "true/true" {
			t.Fatalf("%s: recovery not verified: %s", row[0], row[4])
		}
		fg, tsd := cell(t, tab, i, 1), cell(t, tab, i, 2)
		if fg <= 0 || tsd <= 0 {
			t.Fatalf("%s: non-positive recovery times", row[0])
		}
	}
}

func TestFigure11Shape(t *testing.T) {
	tab, err := Figure11(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("%d files", len(tab.Rows))
	}
	// Aggregate: 4 threads must beat 1 thread overall.
	var t1, t4 float64
	for i := range tab.Rows {
		t1 += cell(t, tab, i, 1)
		t4 += cell(t, tab, i, 3)
	}
	if t4 >= t1 {
		t.Fatalf("4-thread total %.1fms not faster than 1-thread %.1fms", t4, t1)
	}
}

func TestTable3Shape(t *testing.T) {
	tab, err := Table3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		tq := cell(t, tab, i, 1) // seconds
		aq := cell(t, tab, i, 2) // ms
		rb := cell(t, tab, i, 3) // ms
		// The paper's key contrast: full-device TimeQuery is orders of
		// magnitude slower than single-LPA queries.
		if tq*1e3 < aq {
			t.Fatalf("%s: TimeQuery (%.3fs) cheaper than AddrQueryAll (%.3fms)", row[0], tq, aq)
		}
		if aq < 0 || rb < 0 {
			t.Fatalf("%s: negative times", row[0])
		}
	}
}

func TestAblations(t *testing.T) {
	c := tiny()
	for _, name := range []string{"ablation-compress", "ablation-group", "ablation-th", "ablation-bound", "ablation-mapcache", "ablation-wear"} {
		tab, err := Run(name, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tab.Rows) < 3 {
			t.Fatalf("%s: only %d rows", name, len(tab.Rows))
		}
	}
}

func TestObsReport(t *testing.T) {
	tab, err := Run("obs", tiny())
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]bool{}
	ops := map[string]bool{}
	for _, row := range tab.Rows {
		phases[row[0]] = true
		ops[row[1]] = true
	}
	for _, p := range []string{"warm", "replay", "rollback"} {
		if !phases[p] {
			t.Fatalf("no rows for phase %q: %v", p, tab.Rows)
		}
	}
	// Every phase writes pages, so both the host class and the flash
	// micro-op class it decomposes into must appear.
	for _, op := range []string{"host-write", "flash-program"} {
		if !ops[op] {
			t.Fatalf("no rows for op %q", op)
		}
	}
}

func TestServiceFleetShape(t *testing.T) {
	tab, err := Run("service", tiny())
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]bool{}
	ops := map[string]bool{}
	for _, row := range tab.Rows {
		phases[row[0]] = true
		ops[row[1]] = true
	}
	for _, p := range []string{"load", "churn", "rollback", "verify"} {
		if !phases[p] {
			t.Fatalf("no rows for phase %q", p)
		}
	}
	for _, op := range []string{"vol-read", "vol-write", "vol-batch", "vol-rollback"} {
		if !ops[op] {
			t.Fatalf("no rows for class %q (have %v)", op, ops)
		}
	}
	joined := strings.Join(tab.Notes, "\n")
	if !strings.Contains(joined, "verification failures 0") {
		t.Fatalf("fleet reported failures:\n%s", joined)
	}
	if !strings.Contains(joined, "identical before/after: true") {
		t.Fatalf("rollback isolation not proven:\n%s", joined)
	}
	if !strings.Contains(joined, "clients=2048") {
		t.Fatalf("fleet below the 2048-client bar:\n%s", joined)
	}
	// Every row carries positive counts and zero errors. The per-op
	// classes are recorded without a wall start, so their wall columns
	// read "—"; a batch is timed on the host, so its columns are numbers.
	for i, row := range tab.Rows {
		if cell(t, tab, i, 2) <= 0 {
			t.Fatalf("row %v: zero count", row)
		}
		if cell(t, tab, i, 3) != 0 {
			t.Fatalf("row %v: errors", row)
		}
		for col := 7; col < 10; col++ {
			switch row[1] {
			case "vol-read", "vol-write", "vol-trim":
				if row[col] != "—" {
					t.Fatalf("row %v: unmeasured wall column %q reads %q, want —", row, tab.Header[col], row[col])
				}
			case "vol-batch":
				cell(t, tab, i, col)
			}
		}
	}
}

// TestServiceFleetDeterministic runs the fleet twice with the same seed
// and compares every op-level outcome: the digest and isolation notes,
// and the (phase, op, count, errors) columns. Latency columns are
// scheduling-dependent and deliberately excluded.
func TestServiceFleetDeterministic(t *testing.T) {
	c := tiny()
	c.ServiceClients = 256 // smaller fleet: this test runs the experiment twice
	c.ServiceVolumes = 4
	outcomes := func(tab *Table) string {
		var b strings.Builder
		for _, row := range tab.Rows {
			b.WriteString(strings.Join(row[:4], " "))
			b.WriteByte('\n')
		}
		for _, n := range tab.Notes {
			if !strings.Contains(n, "wall") { // the wall-column disclaimer is static too, but be explicit
				b.WriteString(n)
				b.WriteByte('\n')
			}
		}
		return b.String()
	}
	a, err := Run("service", c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("service", c)
	if err != nil {
		t.Fatal(err)
	}
	if oa, ob := outcomes(a), outcomes(b); oa != ob {
		t.Errorf("op-level outcomes differ between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", oa, ob)
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", tiny()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestParallelMatchesSerial is the determinism contract of the worker
// pool: for every experiment, the rendered table at Workers=4 must be
// byte-identical to the serial order (Workers=1). scaling, obs and
// service are excluded — they ignore Workers by design and report host
// wall-clock columns that differ between any two runs (service has its
// own determinism test over the outcome digest).
func TestParallelMatchesSerial(t *testing.T) {
	c := tiny()
	c.CrashSeeds = 2 // enough seeds to exercise pooled dispatch
	for _, name := range Names() {
		if name == "scaling" || name == "obs" || name == "service" {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			serial, par := c, c
			serial.Workers = 1
			par.Workers = 4
			st, err := Run(name, serial)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			pt, err := Run(name, par)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if s, p := st.Render(), pt.Render(); s != p {
				t.Errorf("parallel table differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
			}
		})
	}
}

// TestNamesCoverExperiments checks the experiment table: no name twice,
// and the full built-in suite present.
func TestNamesCoverExperiments(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.name] {
			t.Fatalf("experiment %q has two rows", e.name)
		}
		seen[e.name] = true
	}
	for _, n := range []string{"fig6", "fig7", "fig8", "fig9a", "fig9b", "fig10", "fig11",
		"table3", "ablation-compress", "ablation-group", "ablation-th", "ablation-bound",
		"ablation-mapcache", "ablation-wear", "scaling", "obs", "crashsweep", "service", "sweep"} {
		if !seen[n] {
			t.Fatalf("built-in experiment %q missing from the table", n)
		}
	}
}

// TestDocsNameExperiments: every `go run ./cmd/almanac <name>` in the user
// docs names a row of the experiment table, so the CLI and the docs cannot
// drift apart.
func TestDocsNameExperiments(t *testing.T) {
	known := map[string]bool{}
	for _, n := range Names() {
		known[n] = true
	}
	valued := map[string]bool{"-scale": true, "-seed": true, "-j": true, "-replay": true}
	cmd := regexp.MustCompile("go run ./cmd/almanac([^`#\n>|;&]*)")
	named := 0
	for _, doc := range []string{"EXPERIMENTS.md", "README.md"} {
		b, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cmd.FindAllStringSubmatch(string(b), -1) {
			args := strings.Fields(m[1])
			for i := 0; i < len(args); i++ {
				switch a := args[i]; {
				case valued[a]:
					i++
				case strings.HasPrefix(a, "-") || strings.HasPrefix(a, "<"):
				default:
					named++
					if !known[a] {
						t.Errorf("%s: `go run ./cmd/almanac ... %s` names no experiment", doc, a)
					}
				}
			}
		}
	}
	if named == 0 {
		t.Fatal("the docs name no experiment; is the pattern stale?")
	}
}
