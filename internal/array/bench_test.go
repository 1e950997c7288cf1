package array

import (
	"testing"

	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/trace"
	"almanac/internal/vclock"
)

// BenchmarkArraySyncOp is what a synchronous caller pays for the array in
// front of a device: the same write and read streams against a bare
// core.TimeSSD and against a 1-shard Array over an identical one. All page
// content is generated before the timer starts (256 lineages × 4
// successive similar versions), writes cycle over half the logical space so
// GC and delta compression are in steady state, and reads hit prefilled
// live pages. array1 − core is the cost of the shard hand-off per op.
func BenchmarkArraySyncOp(b *testing.B) {
	fc := flash.DefaultConfig()
	fc.BlocksPerPlane = 128
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0

	const lineages, rounds = 256, 4
	gen := trace.NewContentGen(fc.PageSize, trace.ContentSimilar, 1)
	var corpus [rounds][lineages][]byte
	for k := 0; k < lineages; k++ {
		for r := 0; r < rounds; r++ {
			corpus[r][k] = append([]byte(nil), gen.NextVersion(uint64(k))...)
		}
	}

	run := func(b *testing.B, dev ftl.Device, write bool) {
		workSet := uint64(dev.LogicalPages()) / 2
		at := vclock.Time(0)
		for lpa := uint64(0); lpa < workSet; lpa++ {
			done, err := dev.Write(lpa, corpus[0][lpa%lineages], at)
			if err != nil {
				b.Fatal(err)
			}
			at = done.Add(vclock.Millisecond)
		}
		b.SetBytes(int64(dev.PageSize()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lpa := uint64(i) % workSet
			var done vclock.Time
			var err error
			if write {
				done, err = dev.Write(lpa, corpus[(1+uint64(i)/workSet)%rounds][lpa%lineages], at)
			} else {
				_, done, err = dev.Read(lpa, at)
			}
			if err != nil {
				b.Fatal(err)
			}
			at = done.Add(vclock.Millisecond)
		}
	}
	for _, dut := range []string{"core", "array1"} {
		for _, op := range []string{"write", "read"} {
			b.Run(dut+"/"+op, func(b *testing.B) {
				dev, err := core.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if dut == "core" {
					run(b, dev, op == "write")
					return
				}
				a, err := Assemble([]*core.TimeSSD{dev})
				if err != nil {
					b.Fatal(err)
				}
				defer a.Close()
				run(b, a, op == "write")
			})
		}
	}
}
