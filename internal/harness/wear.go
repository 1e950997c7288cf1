package harness

import (
	"fmt"
	"math/rand"

	"almanac/internal/core"
	"almanac/internal/ftl"
	"almanac/internal/sweep"
	"almanac/internal/trace"
	"almanac/internal/vclock"
)

// AblationWear validates §3.8's claim that TimeSSD's modified wear
// leveling (delta blocks excluded from cold-swaps, retained pages handled
// like GC) "has little impact on its effectiveness": under a hot/cold
// workload, the erase-count spread with wear leveling must stay far below
// the spread without it, on both the regular SSD and TimeSSD.
func AblationWear(c Config) (*Table, error) {
	t := &Table{
		Title:  "Ablation: wear leveling effectiveness (hot/cold workload)",
		Header: []string{"device", "wear-leveling", "min-erases", "max-erases", "spread"},
	}
	type variant struct {
		device string
		wl     bool
	}
	variants := []variant{
		{"regular", true}, {"regular", false},
		{"timessd", true}, {"timessd", false},
	}
	rows := make([][]string, len(variants))
	err := sweep.Parallel(c.Workers, len(variants), func(i int) error {
		r := variants[i]
		var dev ftl.Device
		var spreadOf func() (int, int)
		p := ftl.WithFlash(c.Flash)
		if !r.wl {
			p.WearDelta = 1 << 30 // never triggers
		} else {
			p.WearDelta = 4
			p.WearCheckEvery = 8
		}
		if r.device == "regular" {
			d, err := ftl.NewRegular(p)
			if err != nil {
				return err
			}
			dev = d
			spreadOf = d.Arr.WearSpread
		} else {
			cfg := core.DefaultConfig(p)
			// This sweep hammers a hot spot at far beyond trace intensity;
			// retention must be free to shed or the device would (rightly)
			// refuse writes inside the bound instead of exercising WL.
			cfg.MinRetention = 0
			d, err := core.New(cfg)
			if err != nil {
				return err
			}
			dev = d
			spreadOf = d.Arr.WearSpread
		}
		if err := c.runWearWorkload(dev); err != nil {
			return fmt.Errorf("%s wl=%v: %w", r.device, r.wl, err)
		}
		min, max := spreadOf()
		rows[i] = []string{r.device, fmt.Sprintf("%v", r.wl),
			fmt.Sprintf("%d", min), fmt.Sprintf("%d", max), fmt.Sprintf("%d", max-min)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"expected: with wear leveling on, every block participates (min-erases > 0) and the spread narrows on both devices — TimeSSD's delta-block exclusions do not break it (§3.8)")
	return t, nil
}

// runWearWorkload writes a large cold region once, then hammers a small
// hot region for several device-capacities of writes.
func (c Config) runWearWorkload(dev ftl.Device) error {
	gen := trace.NewContentGen(dev.PageSize(), trace.ContentSimilar, c.Seed)
	logical := dev.LogicalPages()
	cold := uint64(logical / 2)
	at, err := trace.Fill(dev, cold, gen, 0)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	idleDev, _ := dev.(trace.IdleDevice)
	hot := 32
	writes := c.Flash.TotalPages() * 6
	for i := 0; i < writes; i++ {
		lpa := cold + uint64(rng.Intn(hot))
		at = at.Add(10 * vclock.Millisecond)
		done, err := dev.Write(lpa, gen.NextVersion(lpa), at)
		if err != nil {
			return err
		}
		at = done
		if i%512 == 511 && idleDev != nil {
			// Periodic quiet spells so background machinery participates.
			idleDev.Idle(at, at.Add(10*vclock.Second))
			at = at.Add(10 * vclock.Second)
		}
	}
	return nil
}
