package experiments

import (
	"fmt"

	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/recorder"
	"lmas/internal/route"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
	"lmas/internal/trace"
)

// SortRunSpec names one fully parameterized DSM-Sort execution — the unit
// of the bench matrix and of `dsmsort -report`.
type SortRunSpec struct {
	Name          string
	N             int
	Hosts, ASUs   int
	C             float64
	Alpha, Beta   int
	Gamma2        int
	PacketRecords int
	Placement     dsmsort.Placement
	Policy        string // route.ByName vocabulary
	Dist          string // dsmsort.MakeInputNamed vocabulary
	Seed          int64
	// Critpath attaches the critical-path profiler and adds a latency
	// attribution section (with the Pass1Model prediction) to the report.
	Critpath bool
	// Record, when non-nil, streams the run into a recorder sink (store
	// and/or live dashboard): header at start, periodic samples and
	// decisions during the run, the finished report at the end. Recording
	// is a pure observer — the report's bytes are identical with or
	// without it.
	Record recorder.Sink
	// Trace, when non-nil, attaches a structured trace sink to the run.
	// With Record also set, every trace event additionally streams into the
	// recorder as a Span record. Tracing is a pure observer too: the
	// report's bytes are identical with or without it.
	Trace *trace.Sink
	// Experiment labels the run's store segment ("" = "adhoc").
	Experiment string
	// SampleEvery is the recorder's virtual-time sampling interval
	// (0 = 100ms). Only meaningful with Record set.
	SampleEvery sim.Duration
	// GaugeInterval, when positive, additionally emits the periodic
	// observations as report gauges (node.*.cpu.busy_sec, queue.*.depth /
	// .high_water). Off by default so baseline reports are unchanged.
	GaugeInterval sim.Duration
}

// RunSortReport executes spec on an observed cluster and returns the run
// report alongside the raw result. The observers are in place before the
// input is loaded; utilization series therefore cover load + sort, exactly
// what the simulator executed.
//
// The cell's record storage — the striped input and the validated output —
// goes back to the buffer pool before RunSortReport returns, on every path,
// so the next cell reuses it. The result's Output is therefore already freed
// (empty streams); no caller reads its records, and one that needs them calls
// dsmsort.Sort itself.
func RunSortReport(spec SortRunSpec) (*telemetry.RunReport, *dsmsort.Result, error) {
	rep, res, err := RunSortWith(spec, nil, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	return rep, res, nil
}

// RunSortWith is RunSortReport with the caller standing inside the lifecycle,
// for a front end (cmd/dsmsort) whose knobs are not part of a bench cell:
// tune, when non-nil, adjusts the cluster parameters and sort configuration
// derived from spec before anything is built; sorted, when non-nil, sees the
// live cluster and the validated result right after the sort — before the
// samplers stop, the report is built and any storage is returned. Errors come
// back unwrapped.
func RunSortWith(spec SortRunSpec, tune func(*cluster.Params, *dsmsort.Config),
	sorted func(*cluster.Cluster, *dsmsort.Result)) (*telemetry.RunReport, *dsmsort.Result, error) {
	params := cluster.DefaultParams()
	params.Hosts, params.ASUs, params.C = spec.Hosts, spec.ASUs, spec.C
	cfg := dsmsort.Config{
		Alpha:         spec.Alpha,
		Beta:          spec.Beta,
		Gamma2:        spec.Gamma2,
		PacketRecords: spec.PacketRecords,
		Placement:     spec.Placement,
		Seed:          spec.Seed,
	}
	if tune != nil {
		tune(&params, &cfg)
	}
	run, err := startRun(params, observers{
		trace:       spec.Trace,
		critpath:    spec.Critpath,
		record:      spec.Record,
		experiment:  spec.Experiment,
		sampleEvery: spec.SampleEvery,
		gaugeEvery:  spec.GaugeInterval,
	}, spec.Name, spec.Seed, map[string]any{
		"program":   "dsmsort",
		"n":         spec.N,
		"alpha":     spec.Alpha,
		"beta":      spec.Beta,
		"gamma2":    spec.Gamma2,
		"packet":    spec.PacketRecords,
		"placement": spec.Placement.String(),
		"policy":    spec.Policy,
		"dist":      spec.Dist,
	})
	if err != nil {
		return nil, nil, err
	}
	defer run.close()
	in, err := dsmsort.MakeInputNamed(run.cl, spec.N, spec.Dist, spec.Seed, spec.PacketRecords)
	if err != nil {
		return nil, nil, err
	}
	defer in.Free()
	if cfg.SortPolicy, err = route.ByName(spec.Policy, spec.Alpha, spec.Seed); err != nil {
		return nil, nil, err
	}
	res, err := dsmsort.Sort(run.cl, cfg, in)
	if err != nil {
		return nil, nil, err
	}
	if sorted != nil {
		sorted(run.cl, res)
	}
	// Freed before the report is built, not deferred: the observers' finish
	// work (report, segment flush) runs without the output's storage live.
	res.Output.Free()
	return run.finish(res.Elapsed, &cfg, nil), res, nil
}

// BenchMatrix is the standard DSM-Sort benchmark: the paper's placements
// crossed with the routing/workload combinations its figures hinge on —
// active vs conventional (Figure 9), static vs SR routing on the shifted
// workload (Figure 10), and the hybrid migrating placement. Quick shrinks
// the input for CI.
func BenchMatrix(quick bool, seed int64) []SortRunSpec {
	n := 1 << 17
	if quick {
		n = 1 << 14
	}
	cell := func(placement dsmsort.Placement, policy, dist string) SortRunSpec {
		return SortRunSpec{
			Name:          fmt.Sprintf("%v-%s-%s", placement, policy, dist),
			N:             n,
			Hosts:         2,
			ASUs:          8,
			C:             8,
			Alpha:         16,
			Beta:          1 << 10,
			Gamma2:        16,
			PacketRecords: 64,
			Placement:     placement,
			Policy:        policy,
			Dist:          dist,
			Seed:          seed,
		}
	}
	return []SortRunSpec{
		cell(dsmsort.Active, "static", "uniform"),
		cell(dsmsort.Active, "static", "halves"),
		cell(dsmsort.Active, "sr", "halves"),
		cell(dsmsort.Conventional, "static", "uniform"),
		cell(dsmsort.Hybrid, "static", "uniform"),
	}
}

// BenchOptions parameterizes a bench-matrix execution.
type BenchOptions struct {
	Quick bool
	Seed  int64
	Jobs  int
	// Record streams every cell into the sink (each cell is its own run);
	// Experiment and SampleEvery are passed through to the cells' specs.
	Record      recorder.Sink
	Experiment  string
	SampleEvery sim.Duration
	Progress    func(spec SortRunSpec)
}

// RunBenchWith executes the bench matrix on up to opt.Jobs concurrent workers
// (< 1 = one per CPU) and assembles a trajectory point. Cells are independent
// simulations, so the trajectory is byte-identical for every Jobs value and
// with or without recording: results land in matrix order and progress is
// announced in matrix order, up front. The caller stamps GeneratedAt
// (wall-clock time stays out of this package so runs are reproducible byte
// for byte).
func RunBenchWith(opt BenchOptions) (*telemetry.Trajectory, error) {
	specs := BenchMatrix(opt.Quick, opt.Seed)
	for i := range specs {
		specs[i].Record = opt.Record
		specs[i].Experiment = opt.Experiment
		specs[i].SampleEvery = opt.SampleEvery
		if opt.Progress != nil {
			opt.Progress(specs[i])
		}
	}
	reps, err := runCells(len(specs), opt.Jobs, func(i int) (*telemetry.RunReport, error) {
		rep, _, err := RunSortReport(specs[i])
		return rep, err
	})
	if err != nil {
		return nil, err
	}
	return &telemetry.Trajectory{Schema: telemetry.TrajectorySchema, Quick: opt.Quick, Runs: reps}, nil
}
