package experiments

import (
	"fmt"

	"lmas/internal/loadmgr"
	"lmas/internal/records"
	"lmas/internal/route"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
)

// AdaptRow is one strategy of TAB-ADAPT, mid-run adaptation, on the Figure 10
// workload (uniform keys, then exponentially skewed ones of mean SkewMean):
// "static" keeps the imbalance-prone subset assignment, "sr" routes by
// simple randomization from the start, and "adaptive" starts static while a
// load-manager watch samples host utilizations each Params.UtilWindow and,
// when the skew materializes and the hosts diverge by more than Threshold
// for two consecutive windows, switches the distribute→sort edge to SR while
// the sort is running.
type AdaptRow struct {
	Spec
	Strategy  string
	SkewMean  float64
	Threshold float64

	Elapsed   sim.Duration
	Imbalance float64
	// SwitchedAt is when adaptation fired (adaptive strategy only).
	SwitchedAt sim.Time
	// Decisions is the run's load-manager audit log: the imbalance trigger
	// (with the utilization readings that fired it) followed by the
	// routing-policy switch (with per-sorter backlogs).
	Decisions []telemetry.Decision
}

// Adapt measures row's strategy.
func Adapt(row AdaptRow) (AdaptRow, error) {
	run, err := startRun(row.Params, observers{}, "", 0, nil)
	if err != nil {
		return row, fmt.Errorf("adapt %s: %w", row.Strategy, err)
	}
	cl, reg, seed := run.cl, run.cl.Telemetry, row.Sort.Seed

	gen := records.NewGenerator(seed, records.Uniform{}, records.Exponential{Mean: row.SkewMean}, row.N/2)
	var initial route.Policy = route.Static{Buckets: row.Sort.Alpha}
	if row.Strategy == "sr" {
		initial = route.NewSR(seed)
	}
	done := false
	var finishedAt sim.Time
	pl, edge, err := distSortPipeline(cl, row.N, gen, row.Sort.Alpha, row.Sort.Beta, row.Sort.PacketRecords, initial, func() {
		done = true
		finishedAt = cl.Sim.Now()
	})
	if err != nil {
		return row, fmt.Errorf("adapt %s: %w", row.Strategy, err)
	}

	var watch *loadmgr.ImbalanceWatch
	if row.Strategy == "adaptive" {
		watch = &loadmgr.ImbalanceWatch{
			Window:      row.Params.UtilWindow,
			Threshold:   row.Threshold,
			Consecutive: 2,
			Audit:       reg,
		}
		watch.Spawn(cl, cl.Hosts, &done, func() {
			edge.SetPolicy(route.NewSR(seed))
		})
	}

	start := cl.Sim.Now()
	if _, err := pl.Run(); err != nil {
		return row, fmt.Errorf("adapt %s: %w", row.Strategy, err)
	}
	// Elapsed is measured at pipeline completion, excluding the watch's
	// trailing sampling window.
	row.Elapsed = sim.Duration(finishedAt - start)
	_, row.Imbalance = hostImbalance(cl, row.Elapsed)
	row.Decisions = reg.Decisions()
	if watch != nil && watch.Fired() {
		row.SwitchedAt = watch.FiredAt
	}
	return row, nil
}
