package obs

import "sync/atomic"

// Event is one traced operation.
type Event struct {
	Class   Class
	Shard   int
	OK      bool
	LPA     uint64
	IssueNS int64 // virtual issue time
	DoneNS  int64 // virtual completion time
}

// RingSize is the trace ring capacity (power of two). 4096 events cover
// several seconds of host-level history at trace-replay rates while
// keeping the per-registry footprint at 4096×5 words ≈ 160 KiB; flash
// micro-operations are deliberately excluded (see Registry.Record) so the
// ring's reach is measured in host commands, not flash pages.
const RingSize = 4096

// ring is a lock-free, fixed-size trace buffer. Writers claim a ticket
// from next, then claim the ticket's slot by swapping its sequence word
// from an even value older than the ticket to odd (2×ticket−1), and
// publish by storing 2×ticket. A claim fails when the slot is being
// written or already holds a newer ticket; the writer then drops its
// event, so two writers a lap apart never write one slot at once. Readers
// detect overwritten slots through the sequence word without ever
// blocking a writer. Every slot word is atomic, which keeps the structure
// race-detector-clean. If more than RingSize writers are simultaneously
// in flight, events are dropped and a reader may skip the contested slots
// — the ring is best-effort recent history, not an audit log.
type ring struct {
	next  atomic.Uint64
	slots [RingSize]slot
}

type slot struct {
	seq   atomic.Uint64 // 0 empty, odd writing, else 2×ticket
	meta  atomic.Uint64 // class | ok<<8 | shard<<16
	lpa   atomic.Uint64
	issue atomic.Int64
	done  atomic.Int64
}

func packMeta(c Class, shard uint32, ok bool) uint64 {
	m := uint64(c)
	if ok {
		m |= 1 << 8
	}
	return m | uint64(shard)<<16
}

func (r *ring) push(c Class, shard uint32, ok bool, lpa uint64, issue, done int64) {
	t := r.next.Add(1) // tickets start at 1
	s := &r.slots[(t-1)&(RingSize-1)]
	seq := s.seq.Load()
	if seq&1 != 0 || seq >= 2*t || !s.seq.CompareAndSwap(seq, 2*t-1) {
		return // a lapped or lapping writer holds the slot
	}
	s.meta.Store(packMeta(c, shard, ok))
	s.lpa.Store(lpa)
	s.issue.Store(issue)
	s.done.Store(done)
	s.seq.Store(2 * t)
}

// snapshot returns up to max published events, oldest first.
func (r *ring) snapshot(max int) []Event {
	head := r.next.Load()
	if max <= 0 || max > RingSize {
		max = RingSize
	}
	out := make([]Event, 0, max)
	for i := uint64(0); i < RingSize && i < head && len(out) < max; i++ {
		t := head - i
		s := &r.slots[(t-1)&(RingSize-1)]
		seq := s.seq.Load()
		if seq != 2*t {
			continue // unpublished, in flight, or already overwritten
		}
		meta, lpa := s.meta.Load(), s.lpa.Load()
		issue, done := s.issue.Load(), s.done.Load()
		if s.seq.Load() != seq {
			continue // torn by a wrap-around writer
		}
		out = append(out, Event{
			Class:   Class(meta & 0xff),
			OK:      meta&(1<<8) != 0,
			Shard:   int(uint32(meta >> 16)),
			LPA:     lpa,
			IssueNS: issue,
			DoneNS:  done,
		})
	}
	// Collected newest-first; reverse into chronological order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}
