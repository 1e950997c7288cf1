// Package vclock provides the discrete virtual clock used by the flash
// simulator and everything above it.
//
// All latencies in the simulated device are charged against virtual time, so
// an experiment that spans eight weeks of device time completes in seconds of
// wall time. Virtual time is a simple monotonic nanosecond counter; there is
// deliberately no connection to the host clock.
package vclock

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. The zero Time is the simulation epoch.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts freely to
// and from time.Duration, which has the same representation.
type Duration = time.Duration

// Common durations re-exported for convenience at call sites that only
// import vclock.
const (
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
	Minute      = time.Minute
	Hour        = time.Hour
	Day         = 24 * time.Hour
)

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// String renders the time as d:hh:mm:ss.mmm for readable logs.
func (t Time) String() string {
	d := time.Duration(t)
	days := d / Day
	d -= days * Day
	h := d / time.Hour
	d -= h * time.Hour
	m := d / time.Minute
	d -= m * time.Minute
	s := d / time.Second
	d -= s * time.Second
	ms := d / time.Millisecond
	return fmt.Sprintf("%dd%02dh%02dm%02d.%03ds", days, h, m, s, ms)
}
