package array

import (
	"almanac/internal/core"
	"almanac/internal/timekits"
	"almanac/internal/trace"
)

// Replay drives a request stream against the array. It has no page loop of
// its own: trace.Drive, the device's replay loop with its idle, trim and
// failure rules, runs on every shard at once, each on its shard's worker,
// over that shard's part of the stream, and the per-request results are
// merged and folded by trace.Fold. A 1-shard array's replay is therefore
// the bare device's replay.
//
// Splitting: the pages of a request that land on shard s are every n-th
// page from the first one on s, and their local LPAs (global / n) are
// consecutive, so they form one sub-request with the request's op and
// arrival. A request completes with its latest sub-request, and fails if
// any of them failed (with the fatal error, if one was).
//
// Content: each shard draws payloads from its own stripe of gen
// (trace.ContentGen.Stripe), so every page gets the bytes it would get on
// one device and no generator state is shared between shards.
//
// Determinism: each shard's sub-stream is a pure function of the trace and
// its device is touched only by its own loop, so two replays of the same
// trace on same-shaped arrays give identical per-shard and aggregate
// results however the host schedules the workers.
func Replay(a *Array, reqs []trace.Request, gen *trace.ContentGen) (*trace.RunStats, error) {
	n := len(a.shards)
	subs := make([][]trace.Request, n)
	from := make([][]int, n) // trace index of each sub-request
	for i, r := range reqs {
		for s := range subs {
			first := (s - int(r.LPA%uint64(n)) + n) % n // first page of r on shard s
			if first >= r.Pages {
				continue
			}
			local := ((r.LPA + uint64(first)) % uint64(a.logical)) / uint64(n)
			subs[s] = append(subs[s], trace.Request{At: r.At, Op: r.Op, LPA: local, Pages: (r.Pages - first + n - 1) / n})
			from[s] = append(from[s], i)
		}
	}

	gens := gen.Stripe(n)
	res := make([][]trace.Result, n)
	if err := a.fanOut(0, func(s int, dev *core.TimeSSD, _ *timekits.Kit) {
		res[s] = trace.Drive(dev, subs[s], gens[s])
	}); err != nil {
		return nil, err
	}
	gen.Unstripe(gens)

	merged := make([]trace.Result, len(reqs))
	for i := range merged {
		merged[i].Done = reqs[i].At
	}
	for s := range res {
		for j, out := range res[s] {
			m := &merged[from[s][j]]
			m.Done = max(m.Done, out.Done)
			m.Pages += out.Pages
			if out.Err != nil && (m.Err == nil || trace.Fatal(out.Err)) {
				m.Err = out.Err
			}
		}
	}
	// A shard that stopped on a fatal error left later requests short of
	// its pages; Fold ends at the first fatal request, before any of them.
	return trace.Fold(reqs, merged)
}
