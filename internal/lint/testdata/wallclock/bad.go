// Package wallclockbad is a golden-corpus package for the wallclock rule.
// Corpus packages under internal/lint/testdata are in scope for every rule.
package wallclockbad

import "time"

// Elapsed uses wall time inside simulated code: forbidden.
func Elapsed() time.Duration {
	start := time.Now() // want wallclock
	Spin()
	return time.Since(start) // want wallclock
}

// Spin sleeps on the wall clock: forbidden.
func Spin() {
	time.Sleep(time.Millisecond)   // want wallclock
	<-time.After(time.Millisecond) // want wallclock
}

// Allowed demonstrates the escape hatch: the annotation suppresses the
// finding on the next line.
func Allowed() time.Time {
	//almalint:allow wallclock reason: corpus demonstration of the escape hatch
	return time.Now()
}

// Trailing pins the reach of a directive that shares its line with code:
// it covers that line only, so the same call one line down is reported.
func Trailing() time.Duration {
	a := time.Now() //almalint:allow wallclock reason: corpus demonstration of a trailing directive
	b := time.Now() // want wallclock
	return b.Sub(a)
}

// Pure uses only time.Duration arithmetic, which is fine.
func Pure(d time.Duration) time.Duration { return d * 2 }
