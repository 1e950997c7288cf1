// Package bench holds the benchmark bodies shared by the repository's
// `go test -bench` suite (bench_test.go at the module root) and the
// cmd/almabench trajectory tool, which runs them via testing.Benchmark and
// records the results in BENCH_N.json. Keeping one copy of each body means
// the committed trajectory numbers and the interactive benchmarks can never
// drift apart.
package bench

import "testing"

// Spec names one benchmark body for cmd/almabench. Noisy marks bodies
// that cross the kernel (real sockets, real syscalls): their run-to-run
// spread reflects the scheduler, not the code, so almabench records
// their median instead of their floor and widens the regression gate.
type Spec struct {
	Name  string
	Bench func(b *testing.B)
	Noisy bool
}

// Micro returns the micro-benchmarks: codec, Bloom-chain and device
// hot paths. These are cheap enough for a CI smoke run.
func Micro() []Spec {
	return []Spec{
		{Name: "LZFCompress4K", Bench: LZFCompress4K},
		{Name: "LZFDecompress4K", Bench: LZFDecompress4K},
		{Name: "DeltaEncode4K", Bench: DeltaEncode4K},
		{Name: "BloomChainInvalidate", Bench: BloomChainInvalidate},
		{Name: "BloomChainContains", Bench: BloomChainContains},
		{Name: "TimeSSDWrite", Bench: TimeSSDWrite},
		{Name: "TimeSSDRead", Bench: TimeSSDRead},
		{Name: "VersionsQuery", Bench: VersionsQuery},
		{Name: "TimeQueryScan", Bench: TimeQueryScan},
		{Name: "ServiceOpsPerSec", Bench: ServiceOpsPerSec},
		{Name: "ServiceOpsPerSecTCP", Bench: ServiceOpsPerSecTCP, Noisy: true},
		{Name: "SimOpsPerSecond", Bench: SimOpsPerSecond},
	}
}

// Figures returns the figure/table regeneration benchmarks — full harness
// sweeps at reduced scale, seconds per op.
func Figures() []Spec {
	return []Spec{
		{Name: "Fig6ResponseTime", Bench: Fig6ResponseTime},
		{Name: "Fig7WriteAmp", Bench: Fig7WriteAmp},
		{Name: "Fig8Retention", Bench: Fig8Retention},
		{Name: "Fig9IOZone", Bench: Fig9IOZone},
		{Name: "Fig9OLTP", Bench: Fig9OLTP},
		{Name: "Fig10Ransomware", Bench: Fig10Ransomware},
		{Name: "Fig11Revert", Bench: Fig11Revert},
		{Name: "Table3Queries", Bench: Table3Queries},
		{Name: "AblationNoCompression", Bench: AblationNoCompression},
		{Name: "AblationGroupSize", Bench: AblationGroupSize},
		{Name: "AblationThreshold", Bench: AblationThreshold},
		{Name: "AblationMinRetention", Bench: AblationMinRetention},
		{Name: "AblationMapCache", Bench: AblationMapCache},
		{Name: "AblationWear", Bench: AblationWear},
		{Name: "ArrayScaling", Bench: ArrayScaling},
	}
}
