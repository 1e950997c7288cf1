// Benchmarks regenerating every table and figure of the paper's evaluation
// (run with `go test -bench=. -benchmem`), plus micro-benchmarks for the
// core building blocks (LZF, delta coding, Bloom chain, device I/O, version
// queries). The bodies live in internal/bench so cmd/almabench can run the
// same code and record the results in BENCH_N.json — these wrappers only
// pin the `go test` benchmark names.
package almanac_test

import (
	"testing"

	"almanac/internal/bench"
)

func BenchmarkFig6ResponseTime(b *testing.B)      { bench.Fig6ResponseTime(b) }
func BenchmarkFig7WriteAmp(b *testing.B)          { bench.Fig7WriteAmp(b) }
func BenchmarkFig8Retention(b *testing.B)         { bench.Fig8Retention(b) }
func BenchmarkFig9IOZone(b *testing.B)            { bench.Fig9IOZone(b) }
func BenchmarkFig9OLTP(b *testing.B)              { bench.Fig9OLTP(b) }
func BenchmarkFig10Ransomware(b *testing.B)       { bench.Fig10Ransomware(b) }
func BenchmarkFig11Revert(b *testing.B)           { bench.Fig11Revert(b) }
func BenchmarkTable3Queries(b *testing.B)         { bench.Table3Queries(b) }
func BenchmarkAblationNoCompression(b *testing.B) { bench.AblationNoCompression(b) }
func BenchmarkAblationGroupSize(b *testing.B)     { bench.AblationGroupSize(b) }
func BenchmarkAblationThreshold(b *testing.B)     { bench.AblationThreshold(b) }
func BenchmarkAblationMinRetention(b *testing.B)  { bench.AblationMinRetention(b) }
func BenchmarkAblationMapCache(b *testing.B)      { bench.AblationMapCache(b) }
func BenchmarkAblationWear(b *testing.B)          { bench.AblationWear(b) }
func BenchmarkArrayScaling(b *testing.B)          { bench.ArrayScaling(b) }

func BenchmarkLZFCompress4K(b *testing.B)        { bench.LZFCompress4K(b) }
func BenchmarkLZFDecompress4K(b *testing.B)      { bench.LZFDecompress4K(b) }
func BenchmarkDeltaEncode4K(b *testing.B)        { bench.DeltaEncode4K(b) }
func BenchmarkBloomChainInvalidate(b *testing.B) { bench.BloomChainInvalidate(b) }
func BenchmarkBloomChainContains(b *testing.B)   { bench.BloomChainContains(b) }
func BenchmarkTimeSSDWrite(b *testing.B)         { bench.TimeSSDWrite(b) }
func BenchmarkTimeSSDRead(b *testing.B)          { bench.TimeSSDRead(b) }
func BenchmarkVersionsQuery(b *testing.B)        { bench.VersionsQuery(b) }
func BenchmarkTimeQueryScan(b *testing.B)        { bench.TimeQueryScan(b) }
func BenchmarkServiceOpsPerSec(b *testing.B)     { bench.ServiceOpsPerSec(b) }
func BenchmarkServiceOpsPerSecTCP(b *testing.B)  { bench.ServiceOpsPerSecTCP(b) }
func BenchmarkSimOpsPerSecond(b *testing.B)      { bench.SimOpsPerSecond(b) }
