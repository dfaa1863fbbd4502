package experiments

import (
	"fmt"

	"lmas/internal/records"
	"lmas/internal/route"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
)

// IsolationRow is one quantum (Params.IsolationQuantum, 0 = off) of TAB-ISO,
// which implements the paper's stated future work: "network storage is a
// shared resource, and storage-based computation should not occur if it
// interferes with storage access for other applications" (Section 1;
// Section 8 lists performance isolation as future work). A foreground
// application issues latency-sensitive requests to the ASUs while DSM-Sort's
// distribute functors run on them; isolation bounds the request latency by
// admitting requests at high priority and forcing functor computation to
// yield the CPU every quantum.
type IsolationRow struct {
	Spec
	// Baseline is one request's latency on an idle ASU.
	Baseline sim.Duration
	// SortSecs is the co-scheduled sort's run-formation time (the cost of
	// isolation shows up here).
	SortSecs float64
	// Request latency distribution across all foreground clients.
	P50, P99, Max sim.Duration
	Requests      int
}

const (
	// isoRequestInterval is each foreground client's think time.
	isoRequestInterval = 2 * sim.Millisecond
	// isoRequestOps is the ASU CPU cost of serving one request (cache-hit
	// metadata processing; disk-bound requests are governed by the disk
	// model instead).
	isoRequestOps = 1000
)

// Isolation measures the idle baseline, then co-schedules one foreground
// client per ASU with DSM-Sort's distribute phase on the same ASUs.
func Isolation(row IsolationRow) (IsolationRow, error) {
	idle := row.Params
	idle.Hosts, idle.ASUs = 1, 1
	cl, err := bareCluster(idle)
	if err != nil {
		return row, fmt.Errorf("isolation baseline: %w", err)
	}
	cl.Sim.Spawn("baseline", func(p *sim.Proc) {
		start := p.Now()
		cl.ASUs[0].ServeRequest(p, isoRequestOps)
		row.Baseline = sim.Duration(p.Now() - start)
	})
	if err := cl.Sim.Run(); err != nil {
		return row, fmt.Errorf("isolation baseline: %w", err)
	}

	if cl, err = bareCluster(row.Params); err != nil {
		return row, fmt.Errorf("isolation quantum=%v: %w", row.Params.IsolationQuantum, err)
	}
	// Input striped over the ASUs, as in Figure 9.
	gen := records.NewGenerator(row.Sort.Seed, records.Uniform{}, records.Uniform{}, row.N)
	// The background computation: distribute on the ASUs, sort on the
	// host, runs discarded (we only need the ASU CPU pressure).
	sortDone := false
	pl, _, err := distSortPipeline(cl, row.N, gen, row.Sort.Alpha, row.Sort.Beta, row.Sort.PacketRecords,
		route.Static{Buckets: row.Sort.Alpha}, func() { sortDone = true })
	if err != nil {
		return row, fmt.Errorf("isolation quantum=%v: %w", row.Params.IsolationQuantum, err)
	}

	// Foreground clients: one per ASU, issuing requests until the sort
	// completes.
	var lat telemetry.LatencyHistogram
	for i, asu := range cl.ASUs {
		cl.Sim.Spawn(fmt.Sprintf("client@asu%d", i), func(p *sim.Proc) {
			for !sortDone {
				p.Sleep(isoRequestInterval)
				if sortDone {
					return
				}
				start := p.Now()
				asu.ServeRequest(p, isoRequestOps)
				lat.Observe(sim.Duration(p.Now() - start))
			}
		})
	}

	elapsed, err := pl.Run()
	if err != nil {
		return row, fmt.Errorf("isolation quantum=%v: %w", row.Params.IsolationQuantum, err)
	}
	row.SortSecs = elapsed.Seconds()
	row.P50, row.P99 = sim.Duration(lat.Quantile(0.50)), sim.Duration(lat.Quantile(0.99))
	row.Max, row.Requests = sim.Duration(lat.Max()), int(lat.Count())
	return row, nil
}
