package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"almanac/internal/core"
	"almanac/internal/fault"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/sweep"
	"almanac/internal/vclock"
)

// CrashSweep is the crash-recovery equivalence experiment: for each seed it
// drives a random write/read workload against a TimeSSD while maintaining a
// shadow model of every committed write, power-cuts the device at CrashCuts
// random virtual instants (through the internal/fault injector, so the last
// page is torn exactly as the flash layer models it), round-trips the dead
// medium through its image format, rebuilds, and verifies that the
// recovered device is equivalent to the shadow: every committed version
// readable with the right content, the full version history retrievable
// with the right timestamps, VersionAt answering history queries
// correctly, and rollback restoring shadow-predicted content. Invariants
// (core.CheckInvariants) are checked after every rebuild.
//
// Semantics verified are exactly the ones Rebuild documents: an op that
// returned before the cut is durable; the op torn by the cut simply never
// happened; the retention window restarts at the rebuild instant, so no
// committed version may be missing afterwards.
//
// The sweep honours two environment overrides so CI can scale it without a
// config fork: ALMANAC_CRASH_SEEDS and ALMANAC_CRASH_CUTS, each a positive
// integer (anything else is an error, never the default). On a failure,
// if ALMANAC_CRASH_ARTIFACTS names a directory, the failing seed's fault
// plan and flash image are saved there for offline replay.
func CrashSweep(c Config) (*Table, error) {
	seeds, err := envInt("ALMANAC_CRASH_SEEDS", c.CrashSeeds)
	if err != nil {
		return nil, err
	}
	cuts, err := envInt("ALMANAC_CRASH_CUTS", c.CrashCuts)
	if err != nil {
		return nil, err
	}
	if seeds < 1 {
		seeds = 1
	}
	if cuts < 1 {
		cuts = 1
	}
	t := &Table{
		Title:  fmt.Sprintf("Crash sweep: %d seed(s) × %d power cut(s), image round trip + rebuild each", seeds, cuts),
		Header: []string{"seed", "cuts", "writes", "versions-checked", "rollbacks", "status"},
	}
	// Seeds are fully independent workloads: sweep them across the worker
	// pool, one row slot per seed.
	rows := make([][]string, seeds)
	err = sweep.Parallel(c.Workers, seeds, func(s int) error {
		seed := c.Seed + int64(s)
		res, err := crashRun(c, seed, cuts)
		if err != nil {
			return fmt.Errorf("crashsweep: seed %d: %w", seed, err)
		}
		rows[s] = []string{fmt.Sprintf("%d", seed), fmt.Sprintf("%d", res.cuts),
			fmt.Sprintf("%d", res.writes), fmt.Sprintf("%d", res.versions),
			fmt.Sprintf("%d", res.rollbacks), "ok"}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"equivalence: reads, full version history, VersionAt and rollback all match a shadow model of committed writes",
		"the retention window restarts at the rebuild instant (core.Rebuild) — a crash can lengthen retention, never shorten it")
	return t, nil
}

// shadowVer is one committed write in the shadow model.
type shadowVer struct {
	ts  vclock.Time
	tag uint64 // content is regenerated from (lpa, ts, tag)
}

type crashResult struct {
	cuts, writes, versions, rollbacks int
}

// crashRun executes one seed of the sweep.
func crashRun(c Config, seed int64, cuts int) (crashResult, error) {
	const (
		footprintLPAs = 48
		opsPerSeed    = 360
		opStep        = 150 * vclock.Millisecond
	)
	rng := rand.New(rand.NewSource(seed))
	cfg := core.DefaultConfig(ftl.WithFlash(c.Flash))
	cfg.MinRetention = c.MinRetention
	dev, err := core.New(cfg)
	if err != nil {
		return crashResult{}, err
	}

	// The op schedule: strictly increasing virtual times so every version
	// has a unique timestamp and equivalence can compare them exactly.
	shadow := make(map[uint64][]shadowVer)
	written := []uint64{}
	opAt := func(i int) vclock.Time { return vclock.Time(0).Add(vclock.Second + vclock.Duration(i)*opStep) }

	// Cut schedule: each cut fires at the virtual time of a distinct op,
	// guaranteeing it actually triggers mid-workload. The schedule is
	// consumed in time order; a cut instant the previous recovery already
	// passed simply fires on the next flash op, which is still a valid
	// mid-workload crash.
	seen := map[int]bool{}
	var cutAt []vclock.Time
	for len(cutAt) < cuts && len(cutAt) < opsPerSeed/2 {
		i := 1 + rng.Intn(opsPerSeed-1)
		if !seen[i] {
			seen[i] = true
			cutAt = append(cutAt, opAt(i))
		}
	}
	sort.Slice(cutAt, func(i, j int) bool { return cutAt[i] < cutAt[j] })

	res := crashResult{}
	arm := func() error {
		if res.cuts >= len(cutAt) {
			return nil
		}
		// Plan literals are blessed in the harness (almalint faultplan).
		inj, err := fault.NewInjector(&fault.Plan{Seed: seed, Rules: []fault.Rule{{
			Effect: fault.PowerCut, Channel: fault.Any, Block: fault.Any, Page: fault.Any,
			At: cutAt[res.cuts], Count: 1,
		}}})
		if err != nil {
			return err
		}
		dev.SetFaults(inj)
		return nil
	}
	if err := arm(); err != nil {
		return crashResult{}, err
	}

	for i := 0; i < opsPerSeed; i++ {
		at := opAt(i)
		lpa := uint64(rng.Intn(footprintLPAs))
		isRead := len(written) > 0 && rng.Float64() < 0.2
		var opErr error
		if isRead {
			lpa = written[rng.Intn(len(written))]
			var data []byte
			data, _, opErr = dev.Read(lpa, at)
			if opErr == nil {
				vers := shadow[lpa]
				want := crashContent(c.Flash.PageSize, lpa, vers[len(vers)-1])
				if !bytes.Equal(data, want) {
					saveCrashArtifacts(seed, dev)
					return res, fmt.Errorf("op %d: live read of lpa %d diverged from shadow", i, lpa)
				}
			}
		} else {
			v := shadowVer{ts: at, tag: rng.Uint64()}
			_, opErr = dev.Write(lpa, crashContent(c.Flash.PageSize, lpa, v), at)
			if opErr == nil {
				if len(shadow[lpa]) == 0 {
					written = append(written, lpa)
				}
				shadow[lpa] = append(shadow[lpa], v)
				res.writes++
			}
		}
		if opErr == nil {
			continue
		}
		if !dev.Arr.Dead() {
			saveCrashArtifacts(seed, dev)
			return res, fmt.Errorf("op %d: unexpected error with power on: %w", i, opErr)
		}
		// Power was cut mid-op. The op never happened; bring the device
		// back through the full recovery path and verify equivalence.
		res.cuts++
		dev, err = crashRecover(dev, cfg)
		if err != nil {
			return res, fmt.Errorf("op %d: %w", i, err)
		}
		n, err := verifyShadow(dev, c.Flash.PageSize, shadow, opAt(i-1))
		res.versions += n
		if err != nil {
			saveCrashArtifacts(seed, dev)
			return res, fmt.Errorf("op %d (after cut %d): %w", i, res.cuts, err)
		}
		if err := arm(); err != nil {
			return res, err
		}
		i-- // retry the torn op on the recovered device
	}

	// Final verification pass, then rollback equivalence on every
	// multi-version LPA (with injection disarmed: the workload is over).
	dev.SetFaults(nil)
	end := opAt(opsPerSeed)
	n, err := verifyShadow(dev, c.Flash.PageSize, shadow, end)
	res.versions += n
	if err != nil {
		saveCrashArtifacts(seed, dev)
		return res, err
	}
	for k, lpa := range sortedLPAs(shadow) {
		vers := shadow[lpa]
		if len(vers) < 2 {
			continue
		}
		target := vers[rng.Intn(len(vers)-1)] // any non-live version
		at := end.Add(vclock.Duration(k+1) * vclock.Second)
		if _, err := dev.RollBack(lpa, target.ts, at); err != nil {
			return res, fmt.Errorf("rollback lpa %d to %v: %w", lpa, target.ts, err)
		}
		data, _, err := dev.Read(lpa, at.Add(vclock.Second/2))
		if err != nil {
			return res, fmt.Errorf("read after rollback of lpa %d: %w", lpa, err)
		}
		if !bytes.Equal(data, crashContent(c.Flash.PageSize, lpa, target)) {
			saveCrashArtifacts(seed, dev)
			return res, fmt.Errorf("rollback of lpa %d to %v restored wrong content", lpa, target.ts)
		}
		res.rollbacks++
	}
	if err := dev.CheckInvariants(); err != nil {
		saveCrashArtifacts(seed, dev)
		return res, fmt.Errorf("invariants after rollbacks: %w", err)
	}
	return res, nil
}

// crashRecover round-trips the dead device's medium through the image
// format (power truly off) and rebuilds firmware state from flash alone.
func crashRecover(dead *core.TimeSSD, cfg core.Config) (*core.TimeSSD, error) {
	var img bytes.Buffer
	if err := dead.Arr.WriteImage(&img); err != nil {
		return nil, fmt.Errorf("imaging dead array: %w", err)
	}
	arr, err := flash.ReadImage(&img)
	if err != nil {
		return nil, fmt.Errorf("re-reading image: %w", err)
	}
	dev, err := core.Rebuild(arr, cfg)
	if err != nil {
		return nil, fmt.Errorf("rebuild: %w", err)
	}
	if err := dev.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("invariants after rebuild: %w", err)
	}
	return dev, nil
}

// verifyShadow checks the device against the shadow model: live content,
// full version history (count, timestamps, content) and a VersionAt spot
// query per LPA. Returns the number of versions checked.
func verifyShadow(dev *core.TimeSSD, pageSize int, shadow map[uint64][]shadowVer, at vclock.Time) (int, error) {
	checked := 0
	for _, lpa := range sortedLPAs(shadow) {
		want := shadow[lpa]
		got, done, err := dev.Versions(lpa, at)
		if err != nil {
			return checked, fmt.Errorf("versions of lpa %d: %w", lpa, err)
		}
		at = done
		if len(got) != len(want) {
			return checked, fmt.Errorf("lpa %d: device has %d versions, shadow committed %d", lpa, len(got), len(want))
		}
		for i, v := range got { // device is newest-first, shadow oldest-first
			w := want[len(want)-1-i]
			if v.TS != w.ts {
				return checked, fmt.Errorf("lpa %d version %d: ts %v, shadow %v", lpa, i, v.TS, w.ts)
			}
			if !bytes.Equal(v.Data, crashContent(pageSize, lpa, w)) {
				return checked, fmt.Errorf("lpa %d version at %v: content diverged from shadow", lpa, w.ts)
			}
			if v.Live != (i == 0) {
				return checked, fmt.Errorf("lpa %d version %d: live flag %v", lpa, i, v.Live)
			}
			checked++
		}
		// History query: the version current just before the newest write.
		if len(want) > 1 {
			w := want[len(want)-2]
			v, done, err := dev.VersionAt(lpa, w.ts, at)
			if err != nil || v == nil || v.TS != w.ts {
				return checked, fmt.Errorf("lpa %d: VersionAt(%v) = %v, %v", lpa, w.ts, v, err)
			}
			at = done
		}
	}
	return checked, nil
}

// crashContent derives a version's page content from its identity, so the
// shadow model never stores page bodies.
func crashContent(pageSize int, lpa uint64, v shadowVer) []byte {
	p := make([]byte, pageSize)
	x := v.tag ^ lpa ^ uint64(v.ts)
	for i := range p {
		// xorshift64: cheap, deterministic, content-addressed pages.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p[i] = byte(x)
	}
	return p
}

// sortedLPAs returns the shadow's keys in ascending order (deterministic
// iteration; see almalint maporder).
func sortedLPAs(shadow map[uint64][]shadowVer) []uint64 {
	lpas := make([]uint64, 0, len(shadow))
	for lpa := range shadow {
		lpas = append(lpas, lpa)
	}
	sort.Slice(lpas, func(i, j int) bool { return lpas[i] < lpas[j] })
	return lpas
}

// envInt reads a positive integer override from the environment, keeping
// def when the variable is unset. Any other value is an error naming the
// variable: a typo in a CI input must fail the run, not shrink it to the
// default.
func envInt(name string, def int) (int, error) {
	s := os.Getenv(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("harness: %s=%q is not a positive integer", name, s)
	}
	return v, nil
}

// saveCrashArtifacts persists a failing run's medium for offline replay
// when ALMANAC_CRASH_ARTIFACTS names a directory. Best-effort: artifact
// trouble must never mask the sweep failure itself.
func saveCrashArtifacts(seed int64, dev *core.TimeSSD) {
	dir := os.Getenv("ALMANAC_CRASH_ARTIFACTS")
	if dir == "" || dev == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	var img bytes.Buffer
	if err := dev.Arr.WriteImage(&img); err != nil {
		return
	}
	base := filepath.Join(dir, fmt.Sprintf("crashsweep-seed%d", seed))
	_ = os.WriteFile(base+".img", img.Bytes(), 0o644)
	_ = os.WriteFile(base+".txt", []byte(fmt.Sprintf("seed %d\nplan: single powercut rules armed per cut (see harness.CrashSweep)\n", seed)), 0o644)
}
