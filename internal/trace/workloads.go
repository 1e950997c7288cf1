package trace

import (
	"fmt"

	"almanac/internal/vclock"
)

// Class distinguishes the two trace families of §5.1.
type Class int

const (
	// ClassMSR models the week-long enterprise-server traces from
	// Microsoft Research Cambridge (write-heavy, bursty, skewed).
	ClassMSR Class = iota
	// ClassFIU models the twenty-day department-computer traces from FIU
	// (lighter, with long idle periods).
	ClassFIU
)

// MSRNames are the seven MSR workloads used throughout the evaluation.
var MSRNames = []string{"hm", "rsrch", "src", "stg", "ts", "usr", "wdev"}

// FIUNames are the five FIU workloads used throughout the evaluation.
var FIUNames = []string{"research", "webmail", "online", "web-online", "webusers"}

// AllNames lists every named trace in figure order (MSR then FIU).
func AllNames() []string {
	return append(append([]string{}, MSRNames...), FIUNames...)
}

// profile captures the published characterisation of one trace: write
// intensity, skew, request size, and relative I/O intensity (requests per
// virtual day, scaled by the harness).
type profile struct {
	class      Class
	writeRatio float64
	avgPages   int
	seqProb    float64
	hotFrac    float64
	hotAccess  float64
	intensity  float64 // relative requests/day (1.0 = reference)
	burstLen   int
}

// profiles encodes per-workload parameters. Values follow the broad
// characterisations of the MSR and FIU traces in the literature: MSR
// server volumes are strongly write-dominated (60–90% writes) with heavy
// spatial skew; FIU end-user workloads are less intense with longer idle
// periods. Relative intensities drive the retention-duration differences
// of Fig. 8.
var profiles = map[string]profile{
	// MSR Cambridge server volumes.
	"hm":    {ClassMSR, 0.64, 2, 0.15, 0.10, 0.75, 1.00, 24}, // hardware monitoring
	"rsrch": {ClassMSR, 0.91, 2, 0.10, 0.08, 0.80, 0.90, 16}, // research projects
	"src":   {ClassMSR, 0.75, 4, 0.30, 0.12, 0.70, 1.10, 32}, // source control
	"stg":   {ClassMSR, 0.85, 3, 0.25, 0.10, 0.75, 0.85, 24}, // web staging
	"ts":    {ClassMSR, 0.82, 2, 0.10, 0.08, 0.80, 0.80, 16}, // terminal server
	"usr":   {ClassMSR, 0.60, 3, 0.20, 0.15, 0.70, 1.20, 24}, // user home dirs
	"wdev":  {ClassMSR, 0.80, 2, 0.15, 0.10, 0.75, 0.70, 16}, // test web server

	// FIU department computers: lighter and idler.
	"research":   {ClassFIU, 0.90, 2, 0.10, 0.10, 0.80, 0.45, 8},
	"webmail":    {ClassFIU, 0.80, 2, 0.15, 0.12, 0.75, 0.55, 12},
	"online":     {ClassFIU, 0.70, 2, 0.20, 0.10, 0.70, 0.50, 12},
	"web-online": {ClassFIU, 0.65, 3, 0.20, 0.12, 0.70, 0.60, 12},
	"webusers":   {ClassFIU, 0.75, 2, 0.15, 0.10, 0.75, 0.50, 8},
}

// NamedSpec builds the Spec for one of the named workloads.
//
//   - footprint: logical pages the trace touches (set from device size ×
//     target utilisation by the harness);
//   - days: virtual days the trace spans (MSR traces are week-long, FIU
//     twenty days; the harness prolongs them per §5.2);
//   - reqPerDay: reference request rate, scaled by the workload's relative
//     intensity. This knob trades experiment fidelity against wall time.
func NamedSpec(name string, footprint uint64, days int, reqPerDay int, seed int64) (Spec, error) {
	p, ok := profiles[name]
	if !ok {
		return Spec{}, fmt.Errorf("trace: unknown workload %q", name)
	}
	reqs := int(float64(reqPerDay) * p.intensity * float64(days))
	if reqs < 1 {
		reqs = 1
	}
	return Spec{
		Name:        name,
		Seed:        seed,
		Requests:    reqs,
		Duration:    vclock.Duration(days) * vclock.Day,
		WriteRatio:  p.writeRatio,
		TrimRatio:   0.02,
		Footprint:   footprint,
		AvgPages:    p.avgPages,
		SeqProb:     p.seqProb,
		HotFraction: p.hotFrac,
		HotAccess:   p.hotAccess,
		BurstLen:    p.burstLen,
		// Enterprise traces run far below device bandwidth; in-burst
		// arrivals are spaced so the host alone uses a few percent of the
		// device, as on the paper's 1 TB board.
		BurstGap: 8 * vclock.Millisecond,
	}, nil
}

// ClassOf returns which family a named workload belongs to.
func ClassOf(name string) (Class, error) {
	p, ok := profiles[name]
	if !ok {
		return 0, fmt.Errorf("trace: unknown workload %q", name)
	}
	return p.class, nil
}
