package core

import (
	"testing"

	"almanac/internal/flash"
	"almanac/internal/ftl"
)

// FuzzParseConfig drives the canonical config decoder with arbitrary
// text. Invariants: no panic, and for any accepted input the encoding is
// a fixed point — String re-parses to a config with the identical
// encoding. Sweep checkpoints and SWEEP_N.json rows key results by this
// encoding, so the fixed point is what makes resume-across-binaries
// sound.
func FuzzParseConfig(f *testing.F) {
	f.Add(DefaultConfig(ftl.WithFlash(flash.DefaultConfig())).String())
	f.Add(Config{}.String())
	f.Add("channels=1")
	f.Add("channels=1 channels=2")
	f.Add("key=zz")
	f.Add("minret=1h30m th=0.25")
	f.Fuzz(func(t *testing.T, text string) {
		c, err := ParseConfig(text)
		if err != nil {
			return
		}
		s := c.String()
		q, err := ParseConfig(s)
		if err != nil {
			t.Fatalf("String output does not re-parse: %v\noutput: %q", err, s)
		}
		if q.String() != s {
			t.Fatalf("String not a fixed point:\n%q\nvs\n%q", s, q.String())
		}
	})
}
