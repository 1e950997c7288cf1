package main

import (
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule, and how many samples lie beyond it. The caller
// reports a percentile only when beyond ≥ 10.
func percentile(sorted []float64, q float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(q*float64(len(sorted))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank], len(sorted) - 1 - rank
}

// minBeyond is the choosing-metrics rule: a percentile is reported only
// with at least this many samples beyond it.
const minBeyond = 10

// latencies summarises one repetition's per-request host latencies (ns)
// as p50, p95 and p99 in µs. ok is false when p99 has too few samples
// beyond it to be reported.
func latencies(ns []int64) (p50us, p95us, p99us float64, ok bool) {
	s := make([]float64, len(ns))
	for i, v := range ns {
		s[i] = float64(v) / 1e3
	}
	sort.Float64s(s)
	p50us, _ = percentile(s, 0.50)
	p95us, _ = percentile(s, 0.95)
	p99us, beyond := percentile(s, 0.99)
	return p50us, p95us, p99us, beyond >= minBeyond
}

// median returns the median of vals (mean of the middle pair when even).
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the min–max range of vals as a share of their median: the
// figure printed beside every median of repetitions.
func spread(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	m := median(vals)
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}

// calibrate times a fixed FNV-1a pass over 64 KiB and returns the best
// of several rounds in ns: a host-speed yardstick recorded with every
// result so files from different hosts can be normalised.
func calibrate() float64 {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	best := 0.0
	for round := 0; round < 16; round++ {
		h := fnv.New64a()
		t0 := time.Now()
		_, _ = h.Write(buf) // hash.Hash.Write never fails
		d := float64(time.Since(t0).Nanoseconds())
		calibSink = h.Sum64()
		if round == 0 || d < best {
			best = d
		}
	}
	return best
}

var calibSink uint64 // keeps the calibration loops observable

// memCalibrate times random 4 KiB copies inside a 64 MiB arena and returns
// the median of several rounds in ns per copy: how fast this host moves
// pages that miss its caches. That is what every workload here does, and
// what a busy neighbour on a shared host takes away for minutes at a time;
// the FNV loop of calibrate stays in cache and does not notice.
func memCalibrate() float64 {
	const page, pages, rounds, copies = 4096, 16384, 9, 4096
	arena := make([]byte, page*pages)
	for i := 0; i < len(arena); i += page {
		arena[i] = 1 // fault the page in before any timer starts
	}
	x := uint64(88172645463325252) // xorshift64
	times := make([]float64, rounds)
	for r := range times {
		t0 := time.Now()
		for i := 0; i < copies; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			a, b := x%pages*page, x>>20%pages*page
			copy(arena[a:a+page], arena[b:b+page])
		}
		times[r] = float64(time.Since(t0).Nanoseconds()) / copies
	}
	calibSink += uint64(arena[x%uint64(len(arena))])
	return median(times)
}

// usage is a point reading of the process's resource counters.
type usage struct {
	cpuNS      int64 // user + system CPU time
	mallocs    uint64
	allocBytes uint64
	gcPauseNS  uint64
	// Host-wide ticks from /proc/stat: all of them, and those the
	// hypervisor gave to someone else while this machine wanted to run.
	ticks, stolen uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{
		cpuNS:      cpuNow(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPauseNS:  ms.PauseTotalNs,
	}
	u.ticks, u.stolen = hostTicks()
	return u
}

// hostTicks reads the aggregate cpu line of /proc/stat: the sum of its
// fields and the eighth, steal. Both are 0 where there is no such file.
func hostTicks() (total, stolen uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already inside user time
			total += v
		}
		if i == 7 {
			stolen = v
		}
	}
	return total, stolen
}

func cpuNow() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMiB is the process's high-water resident set since the last
// resetPeakRSS (VmHWM of /proc/self/status, in KiB), or since the process
// started where the kernel offers no reset.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS restarts the high-water mark, so each workload of a suite
// reports its own peak and not the largest before it. Linux resets VmHWM
// on a write of "5" to clear_refs; elsewhere the mark simply carries on.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it the peak is process-wide
}

// releaseMemory collects a finished repetition's stack before the next
// one is built, so peak RSS measures one stack, not however many the
// collector had not got round to. The freed spans stay with the runtime
// for the next stack to reuse: handing them back to the OS would only
// buy a gigabyte of fresh page faults per repetition.
func releaseMemory() { runtime.GC() }
