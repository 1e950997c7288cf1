package harness

import (
	"fmt"
	"math/rand"

	"almanac/internal/core"
	"almanac/internal/fsim"
	"almanac/internal/ransom"
	"almanac/internal/sweep"
	"almanac/internal/timekits"
	"almanac/internal/vclock"
)

// Figure10 reproduces Fig. 10: average time to recover user data encrypted
// by thirteen ransomware families, on FlashGuard-style raw retention vs
// TimeSSD (whose recovery additionally pays delta decompression).
func Figure10(c Config) (*Table, error) {
	t := &Table{
		Title:  "Figure 10: Ransomware data recovery time (virtual seconds)",
		Header: []string{"family", "flashguard(s)", "timessd(s)", "timessd-extra", "verified"},
	}
	// Each family's attack+recovery runs on a fresh stack per retention
	// style — 2×len(Families) independent simulations for the worker pool.
	type famRun struct {
		fg, ts *ransom.RecoverStats
	}
	runs := make([]famRun, len(ransom.Families))
	err := sweep.Parallel(c.Workers, 2*len(ransom.Families), func(i int) error {
		fam := ransom.Families[i/2]
		scaled := fam
		scaled.Files = int(float64(fam.Files) * c.RansomScale)
		if scaled.Files < 2 {
			scaled.Files = 2
		}
		flashguard := i%2 == 0
		st, err := c.runRansom(scaled, flashguard)
		if err != nil {
			kind := "timessd"
			if flashguard {
				kind = "flashguard"
			}
			return fmt.Errorf("%s %s: %w", fam.Name, kind, err)
		}
		if flashguard {
			runs[i/2].fg = st
		} else {
			runs[i/2].ts = st
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var sumOver, n float64
	for i, fam := range ransom.Families {
		fg, ts := runs[i].fg, runs[i].ts
		over := ts.RecoveryTime.Seconds()/fg.RecoveryTime.Seconds() - 1
		sumOver += over
		n++
		t.AddRow(fam.Name,
			fmt.Sprintf("%.2f", fg.RecoveryTime.Seconds()),
			fmt.Sprintf("%.2f", ts.RecoveryTime.Seconds()),
			pct(over),
			fmt.Sprintf("%v/%v", fg.Verified, ts.Verified))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean TimeSSD overhead vs FlashGuard-style raw retention: %s (paper: +14.1%%, from decompression)", pct(sumOver/n)),
		"paper: every family recovered in under a minute")
	return t, nil
}

// runRansom executes one family's attack + recovery on a fresh stack.
func (c Config) runRansom(fam ransom.Family, flashguard bool) (*ransom.RecoverStats, error) {
	dev, err := c.newTimeSSD(func(cc *core.Config) {
		if flashguard {
			// FlashGuard retains victim pages uncompressed: recovery reads
			// them back without delta decompression (§5.5.1).
			cc.DisableCompression = true
		}
	})
	if err != nil {
		return nil, err
	}
	opts := fsim.DefaultOptions(fsim.ModeInPlace)
	opts.InodeCount = 1024
	fs, at, err := fsim.Mkfs(dev, opts, 0)
	if err != nil {
		return nil, err
	}
	kit := timekits.New(dev)
	victims, at, err := ransom.PlantFiles(fs, fam, c.Seed, at.Add(vclock.Second))
	if err != nil {
		return nil, err
	}
	at = at.Add(vclock.Hour) // benign interval before infection
	res, at, err := ransom.Attack(fs, fam, victims, c.Seed+1, at)
	if err != nil {
		return nil, err
	}
	// The minute between the ransom note and recovery is idle: TimeSSD's
	// background pass compresses the freshly invalidated victim versions
	// (§3.6), which is exactly why its recovery later pays decompression.
	recoverAt := at.Add(vclock.Minute)
	dev.Idle(at, recoverAt)
	st, _, err := ransom.Recover(kit, res, 4, recoverAt)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// fig11Files are the ten kernel source files of Fig. 11.
var fig11Files = []string{
	"mmap.c", "mprotect.c", "slab.c", "swap.c", "aio.c",
	"inode.c", "iomap.c", "iov.c", "of.c", "pci.c",
}

// Figure11 reproduces Fig. 11: replay a stream of commits to kernel source
// files, then revert each file to its state one (virtual) minute earlier
// with 1, 2 and 4 host threads; recovery time drops as threads exploit the
// SSD's internal channel parallelism.
func Figure11(c Config) (*Table, error) {
	t := &Table{
		Title:  "Figure 11: Reversing OS files to previous versions (ms per file)",
		Header: append([]string{"file"}, threadHeaders(c.Fig11Threads)...),
	}
	// One fresh run per thread count (reverting mutates state); the runs
	// are independent simulations, dispatched across the worker pool.
	results := make([]map[string]vclock.Duration, len(c.Fig11Threads))
	err := sweep.Parallel(c.Workers, len(c.Fig11Threads), func(i int) error {
		times, err := c.runFig11(c.Fig11Threads[i])
		if err != nil {
			return err
		}
		results[i] = times
		return nil
	})
	if err != nil {
		return nil, err
	}
	perThread := map[int]map[string]vclock.Duration{}
	for i, threads := range c.Fig11Threads {
		perThread[threads] = results[i]
	}
	for _, name := range fig11Files {
		row := []string{name}
		for _, th := range c.Fig11Threads {
			row = append(row, ms(perThread[th][name]))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: recovery time drops markedly from 1 to 4 threads (multi-threaded recovery uses SSD channel parallelism)")
	return t, nil
}

func threadHeaders(threads []int) []string {
	out := make([]string, len(threads))
	for i, th := range threads {
		out[i] = fmt.Sprintf("%d thread(ms)", th)
	}
	return out
}

// runFig11 builds the stack, replays commit rounds, and reverts each file,
// returning per-file revert times.
func (c Config) runFig11(threads int) (map[string]vclock.Duration, error) {
	dev, err := c.newTimeSSD(nil)
	if err != nil {
		return nil, err
	}
	opts := fsim.DefaultOptions(fsim.ModeInPlace)
	fs, at, err := fsim.Mkfs(dev, opts, 0)
	if err != nil {
		return nil, err
	}
	kit := timekits.New(dev)
	rng := rand.New(rand.NewSource(c.Seed))
	ps := fs.Device().PageSize()

	// Seed the files with "source code".
	for _, name := range fig11Files {
		if at, err = fs.Create(name, at); err != nil {
			return nil, err
		}
		size := (4 + rng.Intn(12)) * ps
		if at, err = fs.Write(name, 0, srcBytes(rng, size), at); err != nil {
			return nil, err
		}
	}
	// Replay commits: each commit patches a few ranges of one file. The
	// paper replays 100 commits per minute; we space ours to land the same
	// density in virtual time.
	gap := vclock.Duration(600) * vclock.Millisecond
	for i := 0; i < c.Fig11Commits; i++ {
		name := fig11Files[rng.Intn(len(fig11Files))]
		size, _ := fs.Size(name)
		for h := 0; h < 1+rng.Intn(3); h++ {
			off := rng.Int63n(size)
			n := 64 + rng.Intn(ps)
			if off+int64(n) > size {
				n = int(size - off)
			}
			if n <= 0 {
				continue
			}
			if at, err = fs.Write(name, off, srcBytes(rng, n), at); err != nil {
				return nil, err
			}
		}
		at = at.Add(gap)
	}
	// Revert each file to one minute before the end of the replay.
	target := at.Add(-vclock.Minute)
	out := make(map[string]vclock.Duration, len(fig11Files))
	for _, name := range fig11Files {
		lpas, err := fs.FileLPAs(name)
		if err != nil {
			return nil, err
		}
		res, err := kit.RollBackParallel(lpas, threads, target, at)
		if err != nil {
			return nil, err
		}
		out[name] = res.Elapsed
		at = res.Done
	}
	return out, nil
}

func srcBytes(rng *rand.Rand, n int) []byte {
	tokens := []string{"static ", "int ", "err = ", "return ", "->", "struct page *", "if (", ")\n\t", "unlock();\n"}
	out := make([]byte, 0, n)
	for len(out) < n {
		out = append(out, tokens[rng.Intn(len(tokens))]...)
	}
	return out[:n]
}
