package array

import (
	"testing"

	"almanac/internal/invariant"
	"almanac/internal/vclock"
)

// TestSyncOpAllocs pins the caller-runs path at zero heap traffic, beside
// core's TestWriteAllocs: on an idle shard a synchronous Write or Trim
// executes out of a Cmd on the caller's stack and never touches a
// completion channel, a recycled Cmd run with Run reads into the buffer it
// kept, and publishing the shard's snapshot copies into a fixed slot. Read
// allocates exactly the copy it hands the caller. Payloads stay identical
// so no delta is ever emitted: what is measured is the array, not the
// device under GC (that is TestWriteAllocs).
func TestSyncOpAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("almanacdebug shadow assertions allocate")
	}
	a := newTestArray(t, 2)
	data := testPage(a, 7)
	at := vclock.Time(vclock.Hour)
	const pages = 8
	tick := func() vclock.Time { at = at.Add(vclock.Millisecond); return at }
	for lpa := uint64(0); lpa < pages; lpa++ {
		if _, err := a.Write(lpa, data, tick()); err != nil {
			t.Fatal(err)
		}
	}
	lpa := uint64(0)
	next := func() uint64 { lpa = (lpa + 1) % pages; return lpa }
	var cmd Cmd
	for _, tc := range []struct {
		name string
		want float64
		op   func() error
	}{
		{"Write", 0, func() error { _, err := a.Write(next(), data, tick()); return err }},
		{"Read", 1, func() error { _, _, err := a.Read(next(), tick()); return err }},
		{"Run(read)", 0, func() error {
			cmd.SetRead(next(), tick())
			if err := a.Run(&cmd); err != nil {
				return err
			}
			cmd.Wait()
			return cmd.Err
		}},
		{"Trim+Write", 0, func() error {
			l := next()
			if _, err := a.Trim(l, tick()); err != nil {
				return err
			}
			_, err := a.Write(l, data, tick())
			return err
		}},
		{"publish", 0, func() error { a.shards[0].publish(); return nil }},
	} {
		if err := tc.op(); err != nil { // warm: the recycled Cmd's read buffer
			t.Fatalf("%s: %v", tc.name, err)
		}
		var failed error
		n := testing.AllocsPerRun(200, func() {
			if err := tc.op(); err != nil {
				failed = err
			}
		})
		if failed != nil {
			t.Fatalf("%s: %v", tc.name, failed)
		}
		if n != tc.want {
			t.Errorf("%s allocates %.2f times per call on an idle shard, want %v", tc.name, n, tc.want)
		}
	}
	if cmd.done != nil {
		t.Error("a Cmd that only ever ran inline was given a completion channel")
	}
}
