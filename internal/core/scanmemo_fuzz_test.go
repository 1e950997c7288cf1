package core

import (
	"math"
	"reflect"
	"testing"

	"almanac/internal/flash"
	"almanac/internal/vclock"
)

// fuzzStamps are the times a fuzzed run starts from and a fuzzed trim
// happens at: time 0, the top of the int64 range and values between, so
// equal stamps across LPAs and both ends of the bucket arithmetic come up
// often.
var fuzzStamps = [...]vclock.Time{0, 1, 2, 3, 64, 1000, 1 << 32, math.MaxInt64 / 2, math.MaxInt64 - 2, math.MaxInt64 - 1, math.MaxInt64}

// memoFromBytes builds a scanMemo's entries from fuzz bytes, as a walk
// records them. Each entry starts with a header byte: bits 0-2 are the
// run's length, bit 3 gives the entry a trim record and bits 4-7 are the
// LPA's gap to the previous entry's. A byte then picks the run's newest
// stamp from fuzzStamps, and every further stamp is one byte: the run
// steps down by one more than it, so it descends strictly, and it ends
// early rather than go below 0. With a trim, one more byte picks its time
// from fuzzStamps; its top bit leaves the record's head null, a trim the
// LPA no longer has, whose time no query may report. Missing bytes read 0.
func memoFromBytes(data []byte) *scanMemo {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	m := &scanMemo{}
	lpa := uint64(0)
	for len(data) > 0 {
		h := next()
		lpa += uint64(h >> 4)
		if n := int(h & 7); n > 0 {
			ts := fuzzStamps[int(next())%len(fuzzStamps)]
			m.ts = append(m.ts, ts)
			for i := 1; i < n; i++ {
				step := 1 + vclock.Time(next())
				if ts < step {
					break
				}
				ts -= step
				m.ts = append(m.ts, ts)
			}
		}
		e := memoLPA{lpa: lpa, trim: trimRecord{head: flash.NullPPA}, tsEnd: uint32(len(m.ts))}
		if h&8 != 0 {
			b := next()
			e.trim.ts = fuzzStamps[int(b&0x7f)%len(fuzzStamps)]
			if b&0x80 == 0 {
				e.trim.head = 0
			}
		}
		m.lpas = append(m.lpas, e)
		lpa++
	}
	return m
}

// FuzzScanMemoIndex checks the time index against the full filter it
// replaces: over a memo built from fuzz bytes (memoFromBytes), records
// must equal filterRecords for fuzzed bounds. The low bits of pick draw
// from, to or both from the memo's own stamps and trim times, so the
// bounds land exactly on recorded times; bit 2 makes the range one
// instant. Each query runs twice, and the marks must be clear after each.
func FuzzScanMemoIndex(f *testing.F) {
	f.Add([]byte{}, int64(0), int64(math.MaxInt64), uint8(0))
	f.Add([]byte{0x01, 0x04}, int64(0), int64(0), uint8(2))             // to on the only stamp
	f.Add([]byte{0x08, 0x05}, int64(0), int64(math.MaxInt64), uint8(0)) // a trim and no stamp
	f.Add([]byte{0x03, 0x04, 0, 0, 0x13, 0x04, 1, 9}, int64(0), int64(5), uint8(1))
	f.Add([]byte{0x0f, 0x0a, 0, 0, 0, 0, 0, 0, 10, 0x88, 0x03}, int64(3), int64(2), uint8(3))
	f.Add([]byte{0x07, 0x0a, 0, 0, 0x07, 0x0a, 0, 0, 0x08, 0x00}, int64(-1), int64(math.MaxInt64-1), uint8(6))
	f.Add([]byte{0x01, 0x07, 0x01, 0x00, 0xf1, 0x05}, int64(math.MinInt64), int64(math.MaxInt64), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, from, to int64, pick uint8) {
		m := memoFromBytes(data)
		m.index()
		times := append([]vclock.Time(nil), m.ts...)
		for _, e := range m.lpas {
			if e.trim.head != flash.NullPPA {
				times = append(times, e.trim.ts)
			}
		}
		lo, hi := vclock.Time(from), vclock.Time(to)
		if len(times) > 0 {
			if pick&1 != 0 {
				lo = times[uint64(from)%uint64(len(times))]
			}
			if pick&2 != 0 {
				hi = times[uint64(to)%uint64(len(times))]
			}
		}
		if pick&4 != 0 {
			hi = lo
		}
		want := m.filterRecords(lo, hi)
		for range 2 {
			if got := m.records(lo, hi); !reflect.DeepEqual(got, want) {
				t.Fatalf("records(%d, %d) = %v, full filter %v", lo, hi, got, want)
			}
			for w, word := range m.marks {
				if word != 0 {
					t.Fatalf("records(%d, %d) left marks %#x in word %d", lo, hi, word, w)
				}
			}
		}
	})
}
