package almaproto

import (
	"testing"

	"almanac/internal/service"
	"almanac/internal/vclock"
)

// TestTaggedTransportAllocs pins the pooled data path end to end: once
// the pools are warm, a full SubmitBatch/Wait round trip — client
// framing, server framing, batch dispatch, coalesced response flush —
// must stay at or under one allocation per op on both sides combined.
// The budget covers the per-batch allocations the API contract requires
// (the results slice and kind table handed to the caller); everything on
// the transport itself recycles. Under the race detector the bound
// relaxes: instrumentation allocates on channel and map traffic.
func TestTaggedTransportAllocs(t *testing.T) {
	c, _ := servicePipe(t)
	t0 := vclock.Time(vclock.Hour)
	const volPages = 256
	if _, err := c.VolCreate("alloc", "key", volPages, 0, t0); err != nil {
		t.Fatal(err)
	}
	info, err := c.VolAttach("alloc", "key", t0)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Identify()
	if err != nil {
		t.Fatal(err)
	}

	const batchOps = 16
	data := page(c, 7, id.PageSize)
	ops := make([]service.BatchOp, batchOps)
	at := t0.Add(vclock.Second)
	seq := uint64(0)
	roundTrip := func() {
		for i := range ops {
			ops[i] = service.BatchOp{Kind: service.KindWrite, LPA: seq % volPages, Data: data, At: at}
			seq++
			at = at.Add(vclock.Millisecond)
		}
		pb, err := c.SubmitBatch(info.ID, ops)
		if err != nil {
			t.Fatal(err)
		}
		results, err := pb.Wait()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	for i := 0; i < 8; i++ {
		roundTrip() // warm the frame pools, batch scratch, and shard queues
	}

	perBatch := testing.AllocsPerRun(50, roundTrip)
	perOp := perBatch / batchOps
	limit := 1.0
	if raceEnabled {
		limit = 8.0
	}
	if perOp > limit {
		t.Fatalf("tagged batch round trip allocates %.2f/op (%.1f/batch), want <= %.1f/op", perOp, perBatch, limit)
	}
}

// TestSubmitWaitAllocs pins the single-op submit/wait path that Read,
// Write and Trim run. Unlike an OpBatch frame this one runs on its own
// dispatch goroutine on the server, so it is not allocation-free — but
// with warm pools the transport itself recycles, the response is encoded
// straight into its pooled frame, and the total stays bounded instead of
// paying a fresh frame and channel per op.
func TestSubmitWaitAllocs(t *testing.T) {
	c, _ := servicePipe(t)
	id, err := c.Identify()
	if err != nil {
		t.Fatal(err)
	}
	data := page(c, 3, id.PageSize)
	at := vclock.Time(vclock.Hour)
	roundTrip := func() {
		w, err := c.submitWrite(0, data, at)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := waitDone(w); err != nil {
			t.Fatal(err)
		}
		at = at.Add(vclock.Millisecond)
	}
	for i := 0; i < 8; i++ {
		roundTrip()
	}
	perOp := testing.AllocsPerRun(50, roundTrip)
	limit := 6.0
	if raceEnabled {
		limit = 48.0
	}
	if perOp > limit {
		t.Fatalf("submit/wait round trip allocates %.2f/op, want <= %.1f", perOp, limit)
	}
}
