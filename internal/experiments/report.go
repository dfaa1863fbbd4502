package experiments

import (
	"fmt"

	"lmas/internal/cluster"
	"lmas/internal/critpath"
	"lmas/internal/dsmsort"
	"lmas/internal/loadmgr"
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
	// UtilWindow sets the report's utilization window (0 = 100ms default).
	UtilWindow sim.Duration
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

// RunSortReport executes spec with telemetry attached and returns the run
// report alongside the raw result. The input-loading phase runs before
// AttachTelemetry's traces see any activity it shouldn't; utilization
// series therefore cover load + sort, exactly what the simulator executed.
//
// The cell's record storage — the striped input and the validated output —
// goes back to the buffer pool before RunSortReport returns, on every path,
// so the next cell reuses it. The result's Output is therefore already freed
// (empty streams); no caller reads its records, and one that needs them calls
// dsmsort.Sort itself.
func RunSortReport(spec SortRunSpec) (*telemetry.RunReport, *dsmsort.Result, error) {
	params := cluster.DefaultParams()
	params.Hosts, params.ASUs, params.C = spec.Hosts, spec.ASUs, spec.C
	if err := params.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	cl := cluster.New(params)
	cl.AttachTelemetry(telemetry.NewRegistry(), spec.UtilWindow)
	if spec.Trace != nil {
		cl.AttachTrace(spec.Trace)
	}
	if spec.Critpath {
		cl.AttachProfiler(critpath.New())
	}
	workload := map[string]any{
		"program":   "dsmsort",
		"n":         spec.N,
		"alpha":     spec.Alpha,
		"beta":      spec.Beta,
		"gamma2":    spec.Gamma2,
		"packet":    spec.PacketRecords,
		"placement": spec.Placement.String(),
		"policy":    spec.Policy,
		"dist":      spec.Dist,
	}
	var rec recorder.Recorder
	finished := false
	if spec.Record != nil {
		rec = spec.Record.NewRun()
		cfg := cl.Config()
		rec.Begin(&recorder.Header{
			Experiment: spec.Experiment,
			Name:       spec.Name,
			ConfigHash: recorder.ConfigHash(cfg, workload, spec.Seed),
			Seed:       spec.Seed,
			Config:     cfg,
			Workload:   workload,
		})
		cl.AttachRecorder(rec, spec.SampleEvery)
		// Every exit after Begin finishes the recorder: a run that fails
		// still leaves a closed segment ending in a nil-report finish, and
		// the store's writer goroutine never outlives the call.
		defer func() {
			if !finished {
				cl.FinishSampling()
				rec.Finish(nil)
			}
		}()
	}
	if spec.GaugeInterval > 0 {
		cl.AttachPeriodicGauges(spec.GaugeInterval)
	}

	in, err := dsmsort.MakeInputNamed(cl, spec.N, spec.Dist, spec.Seed, spec.PacketRecords)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	defer in.Free()
	pol, err := route.ByName(spec.Policy, spec.Alpha, spec.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	cfg := dsmsort.Config{
		Alpha:         spec.Alpha,
		Beta:          spec.Beta,
		Gamma2:        spec.Gamma2,
		PacketRecords: spec.PacketRecords,
		Placement:     spec.Placement,
		SortPolicy:    pol,
		Seed:          spec.Seed,
	}
	res, err := dsmsort.Sort(cl, cfg, in)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	res.Output.Free()
	cl.FinishSampling()
	rep := cl.BuildReport(spec.Name, spec.Seed, res.Elapsed)
	rep.Workload = workload
	if rep.Critpath != nil {
		if rates, ok := PredictRates(params, spec.Placement, spec.Alpha, spec.Beta); ok {
			cls, rate := rates.Bottleneck()
			rep.Critpath.SetPrediction(cls, rate)
		}
	}
	if rec != nil {
		rec.Finish(rep)
		finished = true
	}
	return rep, res, nil
}

// PredictRates is the Pass1Model rate decomposition for a placement, or
// ok=false when the analytic model does not cover it (hybrid migrates between
// placements mid-run).
func PredictRates(params cluster.Params, pl dsmsort.Placement, alpha, beta int) (loadmgr.Rates, bool) {
	m := loadmgr.Pass1Model{Params: params}
	switch pl {
	case dsmsort.Active:
		return m.ActiveRates(alpha, beta), true
	case dsmsort.Conventional:
		return m.ConventionalRates(alpha, beta), true
	default:
		return loadmgr.Rates{}, false
	}
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
	base := func(name string) SortRunSpec {
		return SortRunSpec{
			Name:          name,
			N:             n,
			Hosts:         2,
			ASUs:          8,
			C:             8,
			Alpha:         16,
			Beta:          1 << 10,
			Gamma2:        16,
			PacketRecords: 64,
			Placement:     dsmsort.Active,
			Policy:        "static",
			Dist:          "uniform",
			Seed:          seed,
		}
	}
	active := base("active-static-uniform")
	activeHalves := base("active-static-halves")
	activeHalves.Dist = "halves"
	activeSR := base("active-sr-halves")
	activeSR.Policy = "sr"
	activeSR.Dist = "halves"
	conv := base("conventional-static-uniform")
	conv.Placement = dsmsort.Conventional
	hybrid := base("hybrid-static-uniform")
	hybrid.Placement = dsmsort.Hybrid
	return []SortRunSpec{active, activeHalves, activeSR, conv, hybrid}
}

// RunBench executes the bench matrix on up to jobs concurrent workers
// (jobs < 1 = one per CPU) and assembles a trajectory point. Cells are
// independent simulations, so the trajectory is byte-identical for every
// jobs value: results land in matrix order and progress is announced in
// matrix order (up front when running in parallel). The caller stamps
// GeneratedAt (wall-clock time stays out of this package so runs are
// reproducible byte for byte).
func RunBench(quick bool, seed int64, jobs int, progress func(spec SortRunSpec)) (*telemetry.Trajectory, error) {
	return RunBenchWith(BenchOptions{Quick: quick, Seed: seed, Jobs: jobs, Progress: progress})
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

// RunBenchWith executes the bench matrix under opt. Recording never changes
// the trajectory's bytes.
func RunBenchWith(opt BenchOptions) (*telemetry.Trajectory, error) {
	quick, progress := opt.Quick, opt.Progress
	tr := &telemetry.Trajectory{Schema: telemetry.TrajectorySchema, Quick: quick}
	specs := BenchMatrix(quick, opt.Seed)
	for i := range specs {
		specs[i].Record = opt.Record
		specs[i].Experiment = opt.Experiment
		specs[i].SampleEvery = opt.SampleEvery
	}
	if progress != nil {
		for _, spec := range specs {
			progress(spec)
		}
	}
	reps := make([]*telemetry.RunReport, len(specs))
	err := runCells(len(specs), opt.Jobs, func(i int) error {
		rep, _, err := RunSortReport(specs[i])
		reps[i] = rep
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.Runs = reps
	return tr, nil
}
