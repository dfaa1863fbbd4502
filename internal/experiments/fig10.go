package experiments

import (
	"fmt"

	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/plot"
	"lmas/internal/recorder"
	"lmas/internal/route"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
)

// Fig10Options parameterizes the Figure 10 reproduction: "Utilization of
// host CPU for two DSM-Sort runs on two hosts and 16 ASUs, with and without
// load management. The first half of the input data is uniformly
// distributed, while the second half is skewed, resulting in a potential
// for unbalanced load across the hosts in the distribute phase."
type Fig10Options struct {
	N             int
	Hosts         int
	ASUs          int
	Alpha         int
	Beta          int
	PacketRecords int
	// Window is the utilization sampling window.
	Window sim.Duration
	// SkewMean sets the exponential mean (fraction of key space) for
	// the skewed second half.
	SkewMean float64
	Base     cluster.Params
	Seed     int64
	// Jobs bounds how many runs execute concurrently (each is an
	// independent simulation); < 1 means one worker per CPU. Results are
	// identical for every value.
	Jobs int
	// Critpath attaches the critical-path profiler to both runs and adds
	// latency-attribution sections (with Pass1Model predictions) to their
	// reports.
	Critpath bool
	// Record streams both runs into a recorder sink; Experiment and
	// SampleEvery follow SortRunSpec's semantics.
	Record      recorder.Sink
	Experiment  string
	SampleEvery sim.Duration
}

// DefaultFig10Options mirrors the paper's setup: two hosts, 16 ASUs. The
// host processor rating is scaled down so the traced run spans seconds of
// virtual time (the paper's Figure 10 x-axis runs to ~12 s), giving the
// utilization curves enough windows to show the divergence; the rating is a
// pure time scale and does not change who bottlenecks, which is what the
// figure demonstrates.
func DefaultFig10Options() Fig10Options {
	base := cluster.DefaultParams()
	base.HostOpsPerSec = 1e6
	base.C = 4
	return Fig10Options{
		N:             1 << 18,
		Hosts:         2,
		ASUs:          16,
		Alpha:         16,
		Beta:          64,
		PacketRecords: 128,
		Window:        100 * sim.Millisecond,
		SkewMean:      0.05,
		Base:          base,
		Seed:          42,
	}
}

// Spec is the cluster and DSM-Sort configuration of o's runs, the sampling
// window as Params.UtilWindow; the skew tables (routes, adapt) start here.
func (o Fig10Options) Spec() Spec {
	p := o.Base
	p.Hosts, p.ASUs, p.UtilWindow = o.Hosts, o.ASUs, o.Window
	return Spec{Params: p, N: o.N, Sort: dsmsort.Config{
		Alpha: o.Alpha, Beta: o.Beta, Gamma2: 2, PacketRecords: o.PacketRecords, Seed: o.Seed,
	}}
}

// Fig10Run is one traced execution.
type Fig10Run struct {
	Policy string
	// Elapsed is the run's total virtual time.
	Elapsed sim.Duration
	// HostUtil holds one utilization trace per host.
	HostUtil []*telemetry.UtilTrace
	// Imbalance is the mean utilization spread across hosts over the
	// run (0 = perfectly balanced).
	Imbalance float64
	// Report is the run's full telemetry snapshot (utilization series,
	// stage instruments, routing counters).
	Report *telemetry.RunReport
}

// Fig10Result holds both runs.
type Fig10Result struct {
	Options Fig10Options
	Static  Fig10Run // no load control: subsets statically assigned
	Managed Fig10Run // load-managed: SR spreads every subset across hosts
}

// Table renders utilization-over-time series for both runs side by side.
func (r *Fig10Result) Table() *plot.Table {
	t := plot.NewTable(
		"Figure 10: host CPU utilization under skew (static vs load-managed)",
		"time(s)", "static.host1", "static.host2", "managed.host1", "managed.host2")
	windows := r.Static.HostUtil[0].Len()
	for _, tr := range append(r.Static.HostUtil, r.Managed.HostUtil...) {
		if tr.Len() > windows {
			windows = tr.Len()
		}
	}
	for w := 0; w < windows; w++ {
		ts := (sim.Duration(w+1) * r.Options.Window).Seconds()
		t.AddRow(ts,
			r.Static.HostUtil[0].At(w), r.Static.HostUtil[1].At(w),
			r.Managed.HostUtil[0].At(w), r.Managed.HostUtil[1].At(w))
	}
	return t
}

// Summary renders the headline comparison.
func (r *Fig10Result) Summary() *plot.Table {
	t := plot.NewTable("Figure 10 summary", "run", "elapsed(s)", "imbalance")
	t.AddRow("static (no load control)", r.Static.Elapsed.Seconds(), r.Static.Imbalance)
	t.AddRow("load-managed (SR)", r.Managed.Elapsed.Seconds(), r.Managed.Imbalance)
	return t
}

// RunFig10 executes the two traced runs. The baseline "assigns half of the
// α distribute subsets to one host, and the other half to the second host"
// (route.Static); the load-managed run spreads "each of the α subsets...
// across both hosts" with simple randomization (route.SR).
func RunFig10(opt Fig10Options) (*Fig10Result, error) {
	runOne := func(policy string) (Fig10Run, error) {
		s := opt.Spec()
		run, err := startRun(s.Params, observers{
			critpath:    opt.Critpath,
			record:      opt.Record,
			experiment:  opt.Experiment,
			sampleEvery: opt.SampleEvery,
		}, "fig10-"+policy, opt.Seed, map[string]any{
			"program": "dsmsort-pass1",
			"n":       opt.N,
			"alpha":   opt.Alpha,
			"beta":    opt.Beta,
			"packet":  opt.PacketRecords,
			"policy":  policy,
			"dist":    "halves",
		})
		if err != nil {
			return Fig10Run{}, fmt.Errorf("fig10 %s: %w", policy, err)
		}
		defer run.close()
		cfg := s.Sort
		cfg.Placement = dsmsort.Active
		// The policy is built per cell, inside the pool, so no routing state
		// is shared across goroutines.
		if cfg.SortPolicy, err = route.ByName(policy, opt.Alpha, opt.Seed); err != nil {
			return Fig10Run{}, err
		}
		r, err := formRuns(run.cl, opt.N, opt.SkewMean, cfg)
		if err != nil {
			return Fig10Run{}, fmt.Errorf("fig10 %s: %w", policy, err)
		}
		res := Fig10Run{Policy: policy, Elapsed: r.Elapsed, Report: run.finish(r.Elapsed, &cfg, nil)}
		res.HostUtil, res.Imbalance = hostImbalance(run.cl, r.Elapsed)
		return res, nil
	}
	// The two runs are independent simulations; sweep them on the worker pool.
	policies := []string{"static", "sr"}
	runs, err := runCells(len(policies), opt.Jobs, func(i int) (Fig10Run, error) { return runOne(policies[i]) })
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Options: opt, Static: runs[0], Managed: runs[1]}, nil
}
