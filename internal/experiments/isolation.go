package experiments

import (
	"fmt"
	"slices"

	"lmas/internal/cluster"
	"lmas/internal/plot"
	"lmas/internal/records"
	"lmas/internal/route"
	"lmas/internal/sim"
)

// IsolationOptions parameterizes TAB-ISO, implementing the paper's stated
// future work: "network storage is a shared resource, and storage-based
// computation should not occur if it interferes with storage access for
// other applications" (Section 1; Section 8 lists performance isolation as
// future work). A foreground application issues latency-sensitive requests
// to the ASUs while DSM-Sort's distribute functors run on them; isolation
// bounds the request latency by admitting requests at high priority and
// forcing functor computation to yield the CPU every quantum.
type IsolationOptions struct {
	N             int
	ASUs          int
	Alpha, Beta   int
	PacketRecords int
	// RequestInterval is each foreground client's think time.
	RequestInterval sim.Duration
	// RequestOps is the ASU CPU cost of serving one request (cache-hit
	// metadata processing; disk-bound requests are governed by the disk
	// model instead).
	RequestOps float64
	// Quanta are the isolation settings to sweep; 0 means no isolation.
	Quanta []sim.Duration
	Base   cluster.Params
	Seed   int64
	// Jobs bounds how many sweep cells execute concurrently (each is an
	// independent simulation); < 1 means one worker per CPU. Results are
	// identical for every value.
	Jobs int
}

// DefaultIsolationOptions uses large packets so unisolated functor holds
// are long enough to hurt.
func DefaultIsolationOptions() IsolationOptions {
	return IsolationOptions{
		N:               1 << 17,
		ASUs:            4,
		Alpha:           16,
		Beta:            64,
		PacketRecords:   1024,
		RequestInterval: 2 * sim.Millisecond,
		RequestOps:      1000,
		Quanta:          []sim.Duration{0, 500 * sim.Microsecond, 100 * sim.Microsecond},
		Base:            cluster.DefaultParams(),
		Seed:            42,
	}
}

// IsolationCell is one quantum setting's measurements.
type IsolationCell struct {
	Quantum sim.Duration
	// SortSecs is the co-scheduled sort's run-formation time (the cost
	// of isolation shows up here).
	SortSecs float64
	// Request latency distribution across all foreground clients.
	P50, P99, Max sim.Duration
	Requests      int
}

// IsolationResult holds the sweep.
type IsolationResult struct {
	Options IsolationOptions
	// Baseline is the request latency with no competing functor work.
	Baseline sim.Duration
	Cells    []IsolationCell
}

// Table renders the sweep.
func (r *IsolationResult) Table() *plot.Table {
	t := plot.NewTable(
		fmt.Sprintf("TAB-ISO: foreground request latency vs functor isolation (idle baseline %.3fms)",
			r.Baseline.Seconds()*1e3),
		"quantum", "sort(s)", "p50(ms)", "p99(ms)", "max(ms)", "requests")
	for _, c := range r.Cells {
		q := "off"
		if c.Quantum > 0 {
			q = fmt.Sprintf("%.1fms", c.Quantum.Seconds()*1e3)
		}
		t.AddRow(q, c.SortSecs,
			c.P50.Seconds()*1e3, c.P99.Seconds()*1e3, c.Max.Seconds()*1e3, c.Requests)
	}
	return t
}

// RunIsolation sweeps the isolation quantum, co-scheduling foreground
// clients with DSM-Sort's distribute phase on the same ASUs.
func RunIsolation(opt IsolationOptions) (*IsolationResult, error) {
	res := &IsolationResult{Options: opt}
	// Idle baseline: one request on an unloaded ASU.
	{
		params := opt.Base
		params.Hosts, params.ASUs = 1, 1
		cl := cluster.New(params)
		cl.Sim.Spawn("baseline", func(p *sim.Proc) {
			start := p.Now()
			cl.ASUs[0].ServeRequest(p, opt.RequestOps)
			res.Baseline = sim.Duration(p.Now() - start)
		})
		if err := cl.Sim.Run(); err != nil {
			return nil, err
		}
	}
	var err error
	res.Cells, err = runCells(len(opt.Quanta), opt.Jobs, func(i int) (IsolationCell, error) {
		cell, err := runIsolationCell(opt, opt.Quanta[i])
		if err != nil {
			err = fmt.Errorf("isolation quantum=%v: %w", opt.Quanta[i], err)
		}
		return cell, err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func runIsolationCell(opt IsolationOptions, quantum sim.Duration) (IsolationCell, error) {
	params := opt.Base
	params.Hosts, params.ASUs = 1, opt.ASUs
	params.IsolationQuantum = quantum
	cl := cluster.New(params)

	// Input striped over the ASUs, as in Figure 9.
	buf := records.Generate(opt.N, params.RecordSize, opt.Seed, records.Uniform{})
	// The background computation: distribute on the ASUs, sort on the
	// host, runs discarded (we only need the ASU CPU pressure).
	sortDone := false
	pl, _, err := distSortPipeline(cl, buf, opt.Alpha, opt.Beta, opt.PacketRecords,
		route.Static{Buckets: opt.Alpha}, func() { sortDone = true })
	if err != nil {
		return IsolationCell{}, err
	}

	// Foreground clients: one per ASU, issuing requests until the sort
	// completes.
	var latencies []sim.Duration
	for i, asu := range cl.ASUs {
		i, asu := i, asu
		cl.Sim.Spawn(fmt.Sprintf("client@asu%d", i), func(p *sim.Proc) {
			for !sortDone {
				p.Sleep(opt.RequestInterval)
				if sortDone {
					return
				}
				start := p.Now()
				asu.ServeRequest(p, opt.RequestOps)
				latencies = append(latencies, sim.Duration(p.Now()-start))
			}
		})
	}

	start := cl.Sim.Now()
	pl.Start()
	if err := cl.Sim.Run(); err != nil {
		return IsolationCell{}, err
	}
	slices.Sort(latencies)
	return IsolationCell{
		Quantum:  quantum,
		SortSecs: (sim.Duration(cl.Sim.Now() - start)).Seconds(),
		P50:      nearestRank(latencies, 50),
		P99:      nearestRank(latencies, 99),
		Max:      nearestRank(latencies, 100),
		Requests: len(latencies),
	}, nil
}
