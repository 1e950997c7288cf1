// Package harness reproduces the paper's evaluation (§5): one entry point
// per figure and table, each returning a Table whose rows mirror what the
// paper plots. Absolute numbers differ from the paper's (the substrate is
// a simulator, not a Cosmos+ board — see DESIGN.md), but the comparisons
// the paper draws — who wins, by what factor, and where the trends bend —
// are expected to hold and are recorded side by side in EXPERIMENTS.md.
package harness

import (
	"fmt"
	"strings"

	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/fsim"
	"almanac/internal/ftl"
	"almanac/internal/trace"
	"almanac/internal/vclock"
)

// Config scales every experiment. Quick() keeps the full sweep under a
// minute for tests, benchmarks and the CLI (its default -scale quick);
// Standard() is what -scale standard selects.
type Config struct {
	Flash flash.Config
	Seed  int64

	// Workers bounds the host worker pool that dispatches an experiment's
	// independent device configurations (`-j` on the almanac CLI): 0 means
	// one worker per GOMAXPROCS core, 1 forces the serial order. Each unit
	// of work builds its own devices and RNGs from the Config seed and
	// writes one preallocated result slot, so the assembled tables are
	// byte-identical at every worker count — parallelism changes host
	// wall-clock only, never a simulated result.
	Workers int

	// MinRetention is TimeSSD's guaranteed retention lower bound. The paper
	// defaults to three days on a 1 TB device; the bound is explicitly
	// vendor-configurable (§3.4) and must scale with device size — on the
	// small quick-scale device, three days of trace writes exceed the whole
	// device, which would (correctly, but uninterestingly) wedge it.
	MinRetention vclock.Duration

	// Trace experiments (Figs. 6–8, Table 3).
	ReqPerDay   int       // reference request rate fed to trace.NamedSpec
	Days        int       // trace length for response-time/WA experiments
	Usages      []float64 // device utilisations (the paper uses 50% and 80%)
	Fig8MSRLens []int     // trace lengths (days) for Fig. 8 MSR
	Fig8FIULens []int     // trace lengths (days) for Fig. 8 FIU

	// Application benchmarks (Fig. 9).
	IOZoneOps      int
	PostMarkTxns   int
	OLTPTxns       int
	OLTPTablePages int

	// Case studies (Figs. 10–11).
	RansomScale  float64 // multiplier on each family's file count
	Fig11Commits int     // edit rounds replayed before reverting
	Fig11Threads []int

	// Crash sweep (crashsweep experiment): power-cut/recovery fuzzing.
	CrashSeeds int // independent workload seeds swept
	CrashCuts  int // power cuts injected per seed

	// Service fleet (service experiment): concurrent tenants on the
	// multi-volume service.
	ServiceClients int // concurrent simulated clients (goroutines)
	ServiceOps     int // pages each client writes/reads per generation
	ServiceShards  int // array shards under the service
	ServiceVolumes int // volumes the clients are partitioned across

	// Design-space sweep (sweep experiment): the default grid truncated
	// to this many values per axis (2..4 — 16 to 256 points), and the
	// per-point workload length. cmd/almasweep drives the same engine
	// with arbitrary spec files.
	SweepAxisValues int
	SweepDays       int
	SweepReqPerDay  int
}

// Quick returns a configuration sized for tests and benchmarks.
func Quick() Config {
	fc := flash.DefaultConfig()
	fc.Channels = 4
	fc.ChipsPerChannel = 2
	fc.BlocksPerPlane = 32
	fc.PagesPerBlock = 32
	fc.PageSize = 2048 // 16 MiB raw
	// Write intensity is chosen so the device's slack space holds several
	// days of invalidated data — the same ratio the paper's traces bear to
	// its 1 TB board. Overdriving a small simulated device pushes TimeSSD
	// into a retention-thrash regime the paper never measures.
	return Config{
		Flash:           fc,
		Seed:            1,
		MinRetention:    6 * vclock.Hour,
		ReqPerDay:       250,
		Days:            7,
		Usages:          []float64{0.5, 0.8},
		Fig8MSRLens:     []int{28, 42, 56},
		Fig8FIULens:     []int{20, 30, 40},
		IOZoneOps:       400,
		PostMarkTxns:    300,
		OLTPTxns:        200,
		OLTPTablePages:  256,
		RansomScale:     0.25,
		Fig11Commits:    60,
		Fig11Threads:    []int{1, 2, 4},
		CrashSeeds:      8,
		CrashCuts:       2,
		ServiceClients:  2048,
		ServiceOps:      4,
		ServiceShards:   4,
		ServiceVolumes:  8,
		SweepAxisValues: 2,
		SweepDays:       2,
		SweepReqPerDay:  150,
	}
}

// Standard returns the CLI-default configuration: a larger device, longer
// traces, full Fig. 8 length sweeps.
func Standard() Config {
	fc := flash.DefaultConfig()
	fc.Channels = 8
	fc.ChipsPerChannel = 2
	fc.BlocksPerPlane = 64
	fc.PagesPerBlock = 64
	fc.PageSize = 4096 // 512 MiB raw
	// As at quick scale, write intensity keeps the slack-to-daily-writes
	// ratio in the paper's regime: its week-long traces never came close
	// to filling a 1 TB board's slack, so Figs. 6–7 must not be measured
	// in a permanently-packed device (that regime belongs to the
	// bound/threshold ablations).
	return Config{
		Flash:           fc,
		Seed:            1,
		MinRetention:    3 * vclock.Day,
		ReqPerDay:       1200,
		Days:            28,
		Usages:          []float64{0.5, 0.8},
		Fig8MSRLens:     []int{28, 35, 42, 49, 56, 63},
		Fig8FIULens:     []int{20, 25, 30, 35, 40},
		IOZoneOps:       4000,
		PostMarkTxns:    3000,
		OLTPTxns:        2000,
		OLTPTablePages:  2048,
		RansomScale:     1.0,
		Fig11Commits:    600,
		Fig11Threads:    []int{1, 2, 4},
		CrashSeeds:      32,
		CrashCuts:       3,
		ServiceClients:  4096,
		ServiceOps:      8,
		ServiceShards:   8,
		ServiceVolumes:  16,
		SweepAxisValues: 4,
		SweepDays:       4,
		SweepReqPerDay:  600,
	}
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render formats the table as aligned monospace text. Ragged rows are
// legal: column widths cover the widest row, rows wider than the header
// render their extra cells, and a zero-row (or even headerless) table
// renders its title and notes without panicking — experiment code may
// legitimately produce an empty table (e.g. a sweep whose every point was
// already checkpointed into another artifact).
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	cols := len(t.Header)
	for _, row := range t.Rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// newRegular builds the baseline device.
func (c Config) newRegular() (*ftl.Regular, error) {
	return ftl.NewRegular(ftl.WithFlash(c.Flash))
}

// newTimeSSD builds a TimeSSD with paper defaults; mutate tweaks the
// config (ablations, FlashGuard-style raw retention, …).
func (c Config) newTimeSSD(mutate func(*core.Config)) (*core.TimeSSD, error) {
	cfg := core.DefaultConfig(ftl.WithFlash(c.Flash))
	cfg.MinRetention = c.MinRetention
	if mutate != nil {
		mutate(&cfg)
	}
	return core.New(cfg)
}

// traceRun holds one warmed trace replay and its device.
type traceRun struct {
	stats *trace.RunStats
	dev   ftl.Device
	end   vclock.Time
}

// runTrace warms the device (fills the footprint once) and replays the
// named workload over cfg.Days at the given utilisation.
func (c Config) runTrace(dev ftl.Device, name string, usage float64, days int) (*traceRun, error) {
	footprint := uint64(float64(dev.LogicalPages()) * usage)
	spec, err := trace.NamedSpec(name, footprint, days, c.ReqPerDay, c.Seed)
	if err != nil {
		return nil, err
	}
	reqs, gen, _, err := trace.Warm(dev, spec)
	if err != nil {
		return nil, err
	}
	st, err := trace.Replay(dev, reqs, gen)
	if err != nil {
		return nil, fmt.Errorf("%s@%.0f%%: %w", name, usage*100, err)
	}
	return &traceRun{stats: st, dev: dev, end: st.End}, nil
}

// newFS builds a file-system stack: kind selects the §5.3 configuration.
type fsKind int

const (
	fsExt4Ordered fsKind = iota // ordered (metadata) journaling on a regular SSD — ext4's default
	fsExt4Data                  // data journaling on a regular SSD
	fsF2FS                      // log-structured on a regular SSD
	fsTimeSSD                   // in-place, no journal, on TimeSSD
)

func (k fsKind) String() string {
	switch k {
	case fsExt4Ordered, fsExt4Data:
		return "Ext4"
	case fsF2FS:
		return "F2FS"
	default:
		return "TimeSSD"
	}
}

func (c Config) newFSStack(k fsKind) (*fsim.FS, ftl.Device, error) {
	var dev ftl.Device
	var err error
	var mode fsim.Mode
	switch k {
	case fsExt4Ordered:
		dev, err = c.newRegular()
		mode = fsim.ModeOrderedJournal
	case fsExt4Data:
		dev, err = c.newRegular()
		mode = fsim.ModeDataJournal
	case fsF2FS:
		dev, err = c.newRegular()
		mode = fsim.ModeLogStructured
	default:
		dev, err = c.newTimeSSD(nil)
		mode = fsim.ModeInPlace
	}
	if err != nil {
		return nil, nil, err
	}
	opts := fsim.DefaultOptions(mode)
	opts.InodeCount = 1024
	fs, _, err := fsim.Mkfs(dev, opts, 0)
	if err != nil {
		return nil, nil, err
	}
	return fs, dev, nil
}

func ms(d vclock.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()*1e3) }
func pct(x float64) string        { return fmt.Sprintf("%+.1f%%", x*100) }
func f2(x float64) string         { return fmt.Sprintf("%.2f", x) }
