package experiments

import (
	"fmt"

	"lmas/internal/cluster"
	"lmas/internal/loadmgr"
	"lmas/internal/plot"
	"lmas/internal/records"
	"lmas/internal/route"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
)

// AdaptOptions parameterizes TAB-ADAPT: mid-run adaptation. The run starts
// with the static (imbalance-prone) subset assignment of Figure 10; a
// load-manager watch samples host utilizations and, when the input skew
// materializes and the hosts diverge, switches the distribute→sort edge to
// simple randomization while the sort is running.
type AdaptOptions struct {
	N             int
	Hosts, ASUs   int
	Alpha, Beta   int
	PacketRecords int
	Window        sim.Duration
	// Threshold/Consecutive configure the imbalance trigger.
	Threshold   float64
	Consecutive int
	SkewMean    float64
	Base        cluster.Params
	Seed        int64
	// Jobs bounds how many strategy cells execute concurrently (each is
	// an independent simulation); < 1 means one worker per CPU. Results
	// are identical for every value.
	Jobs int
}

// DefaultAdaptOptions mirrors the Figure 10 setup.
func DefaultAdaptOptions() AdaptOptions {
	f10 := DefaultFig10Options()
	return AdaptOptions{
		N:             f10.N,
		Hosts:         f10.Hosts,
		ASUs:          f10.ASUs,
		Alpha:         f10.Alpha,
		Beta:          f10.Beta,
		PacketRecords: f10.PacketRecords,
		Window:        f10.Window,
		Threshold:     0.25,
		Consecutive:   2,
		SkewMean:      f10.SkewMean,
		Base:          f10.Base,
		Seed:          f10.Seed,
	}
}

// AdaptCell is one strategy's outcome.
type AdaptCell struct {
	Strategy  string
	Elapsed   sim.Duration
	Imbalance float64
	// SwitchedAt is when adaptation fired (adaptive strategy only).
	SwitchedAt sim.Time
	// Decisions is the run's load-manager audit log: the imbalance
	// trigger (with the utilization readings that fired it) followed by
	// the routing-policy switch (with per-sorter backlogs).
	Decisions []telemetry.Decision
}

// AdaptResult holds the comparison.
type AdaptResult struct {
	Options AdaptOptions
	Cells   []AdaptCell
}

// Table renders the comparison.
func (r *AdaptResult) Table() *plot.Table {
	t := plot.NewTable("TAB-ADAPT: mid-run policy adaptation under skew",
		"strategy", "elapsed(s)", "imbalance", "switched at(s)")
	for _, c := range r.Cells {
		sw := "-"
		if c.SwitchedAt > 0 {
			sw = fmt.Sprintf("%.2f", c.SwitchedAt.Seconds())
		}
		t.AddRow(c.Strategy, c.Elapsed.Seconds(), c.Imbalance, sw)
	}
	return t
}

// RunAdapt measures static, adaptive-switch, and SR-from-the-start.
func RunAdapt(opt AdaptOptions) (*AdaptResult, error) {
	strategies := []string{"static", "adaptive", "sr"}
	cells, err := runCells(len(strategies), opt.Jobs, func(i int) (AdaptCell, error) {
		cell, err := runAdaptCell(opt, strategies[i])
		if err != nil {
			err = fmt.Errorf("adapt %s: %w", strategies[i], err)
		}
		return cell, err
	})
	if err != nil {
		return nil, err
	}
	return &AdaptResult{Options: opt, Cells: cells}, nil
}

func runAdaptCell(opt AdaptOptions, strategy string) (AdaptCell, error) {
	params := opt.Base
	params.Hosts, params.ASUs = opt.Hosts, opt.ASUs
	params.UtilWindow = opt.Window
	run, err := startRun(params, observers{}, "", 0, nil)
	if err != nil {
		return AdaptCell{}, err
	}
	cl, reg := run.cl, run.cl.Telemetry

	// Figure 10 input: uniform first half, skewed second half.
	buf := records.GenerateHalves(opt.N, params.RecordSize, opt.Seed,
		records.Uniform{}, records.Exponential{Mean: opt.SkewMean})
	var initial route.Policy = route.Static{Buckets: opt.Alpha}
	if strategy == "sr" {
		initial = route.NewSR(opt.Seed)
	}
	done := false
	var finishedAt sim.Time
	pl, edge, err := distSortPipeline(cl, buf, opt.Alpha, opt.Beta, opt.PacketRecords, initial, func() {
		done = true
		finishedAt = cl.Sim.Now()
	})
	if err != nil {
		return AdaptCell{}, err
	}

	var watch *loadmgr.ImbalanceWatch
	if strategy == "adaptive" {
		watch = &loadmgr.ImbalanceWatch{
			Window:      opt.Window,
			Threshold:   opt.Threshold,
			Consecutive: opt.Consecutive,
			Audit:       reg,
		}
		watch.Spawn(cl, cl.Hosts, &done, func() {
			edge.SetPolicy(route.NewSR(opt.Seed))
		})
	}

	start := cl.Sim.Now()
	pl.Start()
	if err := cl.Sim.Run(); err != nil {
		return AdaptCell{}, err
	}
	pl.FlushTelemetry()
	// Elapsed is measured at pipeline completion, excluding the watch's
	// trailing sampling window.
	elapsed := sim.Duration(finishedAt - start)
	_, imbalance := hostImbalance(cl, elapsed)
	cell := AdaptCell{Strategy: strategy, Elapsed: elapsed, Imbalance: imbalance, Decisions: reg.Decisions()}
	if watch != nil && watch.Fired() {
		cell.SwitchedAt = watch.FiredAt
	}
	return cell, nil
}
