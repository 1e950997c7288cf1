package harness

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"

	"almanac/internal/obs"
	"almanac/internal/service"
	"almanac/internal/vclock"
)

// ServiceFleet drives the multi-tenant volume service with a fleet of
// concurrent simulated clients in one process: the clients partition the
// volumes, each writes and reads back its own pages through the batched
// service API, one volume's tenants then churn a second generation, and
// that volume alone is rolled back — with another volume's version
// history captured before and after to prove the rollback touched
// nothing outside its extent.
//
// Per phase, the table reports the per-tenant operation classes from obs
// snapshot deltas: virtual-time p50/p99/p999 (the latency the simulated
// device charged) and wall-time p50/p99/p999 (host-side cost of the same
// calls). The quantile columns depend on goroutine scheduling (arrival
// order at the shard queues); every op-level *outcome* — data read back,
// success counts, pages changed by the rollback — is deterministic for a
// fixed Config and is folded into the digest note, which is what the
// determinism tests compare.
//
// The experiment spawns ServiceClients goroutines outright (they are the
// workload, not a host-side worker pool), so Config.Workers does not
// apply.
func ServiceFleet(c Config) (*Table, error) {
	clients, ops := c.ServiceClients, c.ServiceOps
	shards, vols := c.ServiceShards, c.ServiceVolumes
	if clients <= 0 || ops <= 0 || shards <= 0 || vols <= 0 {
		return nil, fmt.Errorf("harness: service experiment needs positive clients/ops/shards/volumes, got %d/%d/%d/%d",
			clients, ops, shards, vols)
	}
	if clients%vols != 0 {
		return nil, fmt.Errorf("harness: %d clients do not partition %d volumes evenly", clients, vols)
	}
	clientsPerVol := clients / vols
	volPages := uint64(clientsPerVol * ops)

	arr, err := c.newArray(shards)
	if err != nil {
		return nil, err
	}
	defer arr.Close()
	if uint64(vols)*volPages > uint64(arr.LogicalPages()) {
		return nil, fmt.Errorf("harness: %d volumes × %d pages exceed the %d-page array",
			vols, volPages, arr.LogicalPages())
	}
	svc := service.New(arr)
	svc.SetObsEnabled(true)

	tab := &Table{
		Title:  fmt.Sprintf("Service fleet — %d clients, %d volumes, %d shards", clients, vols, shards),
		Header: []string{"phase", "op", "count", "errors", "virt p50 ms", "virt p99 ms", "virt p999 ms", "wall p50 µs", "wall p99 µs", "wall p999 µs"},
	}
	nsToMS := func(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }
	// wallUS is the q-quantile of h in µs, or "—" for a class whose wall
	// time is never measured (the per-op vol-read/write/trim records).
	wallUS := func(h obs.HistSnapshot, q float64) string {
		if h.Count == 0 {
			return "—"
		}
		return fmt.Sprintf("%.1f", float64(h.QuantileNS(q))/1e3)
	}
	prev := svc.ObsSnapshot()
	addPhase := func(name string) {
		cur := svc.ObsSnapshot()
		delta := obs.DeltaOps(prev.Ops, cur.Ops)
		for _, op := range obs.SortedOpNames(delta) {
			st := delta[op]
			tab.AddRow(name, op,
				fmt.Sprintf("%d", st.Count),
				fmt.Sprintf("%d", st.Errors),
				nsToMS(st.Virt.QuantileNS(0.5)),
				nsToMS(st.Virt.QuantileNS(0.99)),
				nsToMS(st.Virt.QuantileNS(0.999)),
				wallUS(st.Wall, 0.5),
				wallUS(st.Wall, 0.99),
				wallUS(st.Wall, 0.999))
		}
		prev = cur
	}

	// Provision: one volume per tenant group; even-numbered volumes carry
	// an explicit retention promise so the upward MinRetention aggregation
	// is exercised, odd ones accept the device default.
	t0 := vclock.Time(vclock.Hour)
	handles := make([]*service.Volume, vols)
	for v := 0; v < vols; v++ {
		var retention vclock.Duration
		if v%2 == 0 {
			retention = 6 * vclock.Hour
		}
		vol, err := svc.Create(fmt.Sprintf("vol-%03d", v), fmt.Sprintf("key-%03d", v), volPages, retention, t0)
		if err != nil {
			return nil, fmt.Errorf("provision vol %d: %w", v, err)
		}
		handles[v] = vol
	}

	// dataByte is the deterministic page fill for (volume, client-in-
	// volume, page, generation).
	dataByte := func(vol, cv, page, gen int) byte {
		return byte(37*vol + 131*cv + 17*page + 101*gen + int(c.Seed))
	}
	ps := arr.PageSize()

	var digestMu sync.Mutex
	var digest uint64
	var failures int
	// runClients spawns one goroutine per selected client. Each writes its
	// ops pages as one batch, reads them back as a second batch, verifies
	// the contents, and folds its op-level outcomes into an order-
	// independent digest (per-client FNV-1a, XOR-folded — latencies are
	// deliberately not part of it).
	runClients := func(phase string, onlyVol int, gen int, write bool, at vclock.Time) {
		var wg sync.WaitGroup
		for v := 0; v < vols; v++ {
			if onlyVol >= 0 && v != onlyVol {
				continue
			}
			for cv := 0; cv < clientsPerVol; cv++ {
				wg.Add(1)
				go func(v, cv int) {
					defer wg.Done()
					vol := handles[v]
					base := uint64(cv * ops)
					h := fnv.New64a()
					fmt.Fprintf(h, "%s/%d/%d", phase, v, cv)
					bad := 0
					// One BatchRun per client, reused across its batches —
					// the same scratch-recycling discipline the protocol
					// server applies per connection.
					var run service.BatchRun
					if write {
						batch := make([]service.BatchOp, ops)
						for i := 0; i < ops; i++ {
							data := make([]byte, ps)
							fill := dataByte(v, cv, i, gen)
							for j := range data {
								data[j] = fill
							}
							batch[i] = service.BatchOp{
								Kind: service.KindWrite, LPA: base + uint64(i),
								Data: data, At: at.Add(vclock.Duration(i) * vclock.Second),
							}
						}
						vol.StartBatch(batch, &run)
						for i, r := range run.Complete() {
							fmt.Fprintf(h, "|w%d:%t", i, r.Err == nil)
							if r.Err != nil {
								bad++
							}
						}
					}
					reads := make([]service.BatchOp, ops)
					rat := at.Add(vclock.Duration(ops) * vclock.Second)
					for i := 0; i < ops; i++ {
						reads[i] = service.BatchOp{Kind: service.KindRead, LPA: base + uint64(i), At: rat}
					}
					vol.StartBatch(reads, &run)
					for i, r := range run.Complete() {
						ok := r.Err == nil && len(r.Data) == ps && r.Data[0] == dataByte(v, cv, i, gen) && r.Data[ps-1] == r.Data[0]
						fmt.Fprintf(h, "|r%d:%t", i, ok)
						if !ok {
							bad++
						}
					}
					digestMu.Lock()
					digest ^= h.Sum64()
					failures += bad
					digestMu.Unlock()
				}(v, cv)
			}
		}
		wg.Wait()
	}

	// Load: every client writes and reads back generation 1.
	t1 := t0.Add(10 * vclock.Minute)
	runClients("load", -1, 1, true, t1)
	addPhase("load")

	// Churn: volume 0's tenants overwrite their pages with generation 2.
	tCut := t0.Add(30 * vclock.Minute)
	t2 := t0.Add(vclock.Hour)
	runClients("churn", 0, 2, true, t2)
	addPhase("churn")

	// Rollback volume 0 to before the churn; volume 1's history must be
	// byte-identical across it.
	probe := volPages
	if probe > 64 {
		probe = 64
	}
	atRB := t0.Add(2 * vclock.Hour)
	before, err := handles[1].History(0, int(probe), atRB)
	if err != nil {
		return nil, fmt.Errorf("history before rollback: %w", err)
	}
	res, err := handles[0].RollBack(tCut, atRB.Add(vclock.Minute))
	if err != nil {
		return nil, fmt.Errorf("rollback: %w", err)
	}
	after, err := handles[1].History(0, int(probe), atRB.Add(2*vclock.Minute))
	if err != nil {
		return nil, fmt.Errorf("history after rollback: %w", err)
	}
	isolated := reflect.DeepEqual(before.Value, after.Value)
	if !isolated {
		failures++
	}
	addPhase("rollback")

	// Verify: every client reads generation 1 again — volume 0 because the
	// rollback reverted it, the rest because they were never rewritten.
	runClients("verify", -1, 1, false, t0.Add(3*vclock.Hour))
	addPhase("verify")

	tab.Notes = append(tab.Notes,
		fmt.Sprintf("clients=%d ops/client=%d volumes=%d shards=%d seed=%d", clients, ops, vols, shards, c.Seed),
		fmt.Sprintf("outcome digest %016x (op-level results only; latency-free, order-independent), verification failures %d", digest, failures),
		fmt.Sprintf("rollback of vol-000 to %v changed %d pages; vol-001 history identical before/after: %t", tCut, res.Value, isolated),
		"virt columns are simulated device time; wall columns are host-side cost and vary run to run; — marks a class whose wall time is not measured",
	)
	if failures > 0 {
		return tab, fmt.Errorf("harness: service fleet had %d verification failures", failures)
	}
	return tab, nil
}
