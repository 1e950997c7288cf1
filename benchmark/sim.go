package main

import (
	"bytes"
	"time"

	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/vclock"
)

const (
	simChunk  = 1024 // ops per host-latency sample on sim-mixed-512
	simSample = 64   // traced run: one op in simSample of each kind gets a span
)

// simGeometry is the SimOpsPerSecond device: 512 B sectors, 128 pages a
// block, so per-op byte work is small and the per-op constant factor of
// the simulator (mapping tables, Bloom chain, GC bookkeeping) dominates.
func simGeometry(blocks int) core.Config {
	fc := flash.DefaultConfig()
	fc.PageSize = 512
	fc.PagesPerBlock = 128
	fc.BlocksPerPlane = blocks
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0
	return cfg
}

// simShadow is the shadow model of sim-mixed-512: per LPA, how many times
// it has been written and when each of its last `versions` writes was
// stamped. Write k of an LPA (k from 0, the prefill) carries content
// page(lpa, k) and its stamp sits in slot k mod versions.
type simShadow struct {
	writes []uint32
	stamps [][versions]vclock.Time
}

func newSimShadow(lpas uint64) *simShadow {
	return &simShadow{writes: make([]uint32, lpas), stamps: make([][versions]vclock.Time, lpas)}
}

// wrote records a write of lpa stamped at and returns the version index
// it carries.
func (s *simShadow) wrote(lpa uint64, at vclock.Time) int {
	k := s.writes[lpa]
	s.writes[lpa]++
	s.stamps[lpa][k%versions] = at
	return int(k)
}

// next is the version index the next write of lpa will carry.
func (s *simShadow) next(lpa uint64) int { return int(s.writes[lpa]) }

// matchHistory checks a Versions answer against the shadow model. The
// first entry is the live version. With MinRetention 0 the window shrinks
// under pressure and the device may have reclaimed a version while an
// older one is still reachable through its delta chain, so the rest must
// be a subsequence of the LPA's earlier writes, newest first: timestamps
// strictly falling, no more entries than writes. An entry stamped within
// the last `versions` writes must be exactly one of them, stamp and
// content; an older one must carry the content of a write older than the
// entry before it (content repeats every `versions` writes, so that is
// the most the model can say about it).
func (s *simShadow) matchHistory(vers []core.Version, c *corpus, lpa uint64) bool {
	n := int(s.writes[lpa])
	if n == 0 || len(vers) == 0 || len(vers) > n || !vers[0].Live {
		return false
	}
	known := min(n, versions) // writes n-1 … n-known have their stamp in the ring
	k := n                    // write index of the previous entry
	for i, v := range vers {
		if i > 0 && v.TS >= vers[i-1].TS {
			return false
		}
		if oldest := s.stamps[lpa][(n-known)%versions]; v.TS >= oldest {
			for k--; k >= n-known && s.stamps[lpa][k%versions] != v.TS; k-- {
			}
			if k < n-known || (i == 0 && k != n-1) {
				return false
			}
		} else {
			for k = min(k, n-known) - 1; k >= 0 && !bytes.Equal(v.Data, c.page(lpa, k)); k-- {
			}
			if k < 0 {
				return false
			}
		}
		if !bytes.Equal(v.Data, c.page(lpa, k)) {
			return false
		}
	}
	return true
}

// runSim is one repetition of sim-mixed-512: core.TimeSSD called
// directly with the ROADMAP's 8 W : 7 R : 1 Versions mix over cyclic
// LPAs covering half the logical space. Virtual time is closed-loop:
// the next op is issued 1 µs after the previous write completed.
func runSim(e *env) (*repResult, error) {
	t0 := time.Now()
	d, err := core.New(simGeometry(e.sz.simBlocks))
	if err != nil {
		return nil, err
	}
	c := newCorpus(e.seed, d.PageSize())
	workSet := uint64(d.LogicalPages()) / 2
	shadow := newSimShadow(workSet)
	at := vclock.Time(0)
	for lpa := uint64(0); lpa < workSet; lpa++ {
		done, err := d.Write(lpa, c.page(lpa, shadow.wrote(lpa, at)), at)
		if err != nil {
			return nil, err
		}
		at = done.Add(vclock.Microsecond)
	}
	n := e.scaled(e.sz.simOps, simChunk)
	r := &repResult{setupNS: time.Since(t0).Nanoseconds(), attempted: n, latNS: make([]int64, 0, n/simChunk)}
	before := d.Counters()

	tr := e.tr
	var writes, reads, queries uint64
	w := startWatch()
	chunk := time.Now()
	for i := 0; i < n; i++ {
		sp := -1
		switch {
		case i%16 == 15:
			lpa := queries % workSet
			if tr != nil && queries%simSample == 0 {
				sp = tr.begin("Versions", e.parent, uint64(i))
			}
			vers, done, err := d.Versions(lpa, at)
			if sp >= 0 {
				tr.end(sp)
			}
			queries++
			if err != nil || !shadow.matchHistory(vers, c, lpa) {
				r.failed++
				continue
			}
			r.virtRespNS += int64(done.Sub(at))
		case i%2 == 0:
			lpa := writes % workSet
			page := c.page(lpa, shadow.wrote(lpa, at))
			if tr != nil && writes%simSample == 0 {
				sp = tr.begin("Write", e.parent, uint64(i))
			}
			done, err := d.Write(lpa, page, at)
			if sp >= 0 {
				tr.end(sp)
			}
			writes++
			if err != nil {
				r.failed++
				continue
			}
			r.virtRespNS += int64(done.Sub(at))
			at = done.Add(vclock.Microsecond)
		default:
			lpa := reads % workSet
			if tr != nil && reads%simSample == 0 {
				sp = tr.begin("Read", e.parent, uint64(i))
			}
			data, done, err := d.Read(lpa, at)
			if sp >= 0 {
				tr.end(sp)
			}
			reads++
			if err != nil || !bytes.Equal(data, c.page(lpa, shadow.next(lpa)-1)) {
				r.failed++
				continue
			}
			r.virtRespNS += int64(done.Sub(at))
		}
		if i%simChunk == simChunk-1 {
			now := time.Now()
			r.latNS = append(r.latNS, now.Sub(chunk).Nanoseconds())
			chunk = now
			r.sampleRetention(at, d.RetentionWindowStart())
		}
	}
	w.stop(r)

	r.virtOps = int64(n - r.failed)
	r.virtEnd = at
	r.total = d.Counters()
	r.timed = subCounters(r.total, before)
	r.windowStart = d.RetentionWindowStart()
	r.layer = map[string]float64{}
	if tr != nil {
		for _, kv := range [][2]string{{"Write", "core.write_ns"}, {"Read", "core.read_ns"}, {"Versions", "core.versions_ns"}} {
			r.layer[kv[1]] = tr.p50us(kv[0], e.parent) * 1e3
		}
	}
	return r, nil
}
