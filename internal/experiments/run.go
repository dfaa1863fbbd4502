package experiments

import (
	"fmt"

	"lmas/internal/bte"
	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/dsmsort"
	"lmas/internal/functor"
	"lmas/internal/loadmgr"
	"lmas/internal/recorder"
	"lmas/internal/records"
	"lmas/internal/route"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
	"lmas/internal/trace"
)

// observers selects what watches an observed run besides telemetry, which is
// always on. The zero value adds nothing; every observer is a pure observer,
// so no combination changes virtual time or the report's bytes.
type observers struct {
	trace      *trace.Sink
	critpath   bool
	record     *recorder.Store
	experiment string // store label for the recorded run
}

// observedRun is the one lifecycle of a reported run; RunSortWith, RunFig10
// and RunOpenLoop are workloads between its steps:
//
//	startRun validated params → store header → cluster with every observer
//	         wired in (cluster.NewObserved), before any workload proc
//	finish   Finish → BuildReport → workload → Pass1Model → rec.Finish(report)
//	close    deferred right after startRun: a run that never reached finish
//	         still leaves a closed segment ending in a nil-report finish, with
//	         no writer goroutine behind it
type observedRun struct {
	cl       *cluster.Cluster
	name     string
	seed     int64
	workload map[string]any
	rec      *recorder.Segment
	finished bool
}

// startRun names the run, opens its store segment when obs records it, and
// builds the cluster — the one place this package builds an observed one.
// The harnesses that only read a registry off the cluster (adapt, rtree) pass
// zero observers and no name.
func startRun(params cluster.Params, obs observers, name string, seed int64, workload map[string]any) (*observedRun, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	r := &observedRun{name: name, seed: seed, workload: workload}
	watch := cluster.Observers{
		Telemetry: telemetry.NewRegistry(),
		Trace:     obs.trace,
		Critpath:  obs.critpath,
	}
	if obs.record != nil {
		r.rec = obs.record.NewRun()
		cfg := params.Config()
		r.rec.Begin(&recorder.Header{
			Experiment: obs.experiment,
			Name:       name,
			ConfigHash: recorder.ConfigHash(cfg, workload, seed),
			Seed:       seed,
			Config:     cfg,
			Workload:   workload,
		})
		watch.Recorder = r.rec
	}
	r.cl = cluster.NewObserved(params, watch)
	return r, nil
}

// finish builds the run's report and hands it to the recorder. pass1, when
// non-nil, is the DSM-Sort configuration whose analytic bottleneck is stamped
// into a critpath section; extend, when non-nil, completes the report before
// the recorder stores it.
func (r *observedRun) finish(elapsed sim.Duration, pass1 *dsmsort.Config, extend func(*telemetry.RunReport)) *telemetry.RunReport {
	r.cl.Finish()
	rep := r.cl.BuildReport(r.name, r.seed, elapsed)
	rep.Workload = r.workload
	if cp := rep.Critpath; cp != nil && pass1 != nil {
		// Hybrid migrates between placements mid-run: the analytic model
		// covers neither half, and its verdict stays observation-only.
		model := loadmgr.Pass1Model{Params: r.cl.Params}
		switch pass1.Placement {
		case dsmsort.Active:
			cp.SetPrediction(model.ActiveRates(pass1.Alpha, pass1.Beta).Bottleneck())
		case dsmsort.Conventional:
			cp.SetPrediction(model.ConventionalRates(pass1.Alpha, pass1.Beta).Bottleneck())
		}
	}
	if extend != nil {
		extend(rep)
	}
	if r.rec != nil {
		r.rec.Finish(rep)
	}
	r.finished = true
	return rep
}

func (r *observedRun) close() {
	if r.finished {
		return
	}
	r.finished = true
	r.cl.Finish()
	if r.rec != nil {
		r.rec.Finish(nil)
	}
}

// formRuns is the one run-formation cell: it stripes n records over cl's ASUs
// — uniform keys, or Figure 10's uniform-then-exponential halves when
// skewMean > 0 — and runs DSM-Sort's first pass under cfg. The input's and
// the stored runs' pooled storage goes back to the buffer pool on every path.
func formRuns(cl *cluster.Cluster, n int, skewMean float64, cfg dsmsort.Config) (*dsmsort.Pass1Result, error) {
	if n < 1 {
		return nil, fmt.Errorf("N must be >= 1, have %d", n)
	}
	var in *dsmsort.Input
	if skewMean > 0 {
		in = dsmsort.MakeInputHalves(cl, n, records.Uniform{}, records.Exponential{Mean: skewMean}, cfg.Seed, cfg.PacketRecords)
	} else {
		in = dsmsort.MakeInput(cl, n, records.Uniform{}, cfg.Seed, cfg.PacketRecords)
	}
	defer in.Free()
	rs, r, err := dsmsort.RunFormation(cl, cfg, in)
	if err != nil {
		return nil, err
	}
	rs.Free()
	return r, nil
}

// bareCluster builds an unobserved cluster from params, returning
// Params.Validate's error where cluster.New would panic.
func bareCluster(params cluster.Params) (*cluster.Cluster, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return cluster.New(params), nil
}

// pass1Cells is the cell of every sweep that only times the first pass: run
// formation from uniform input under each placement in turn, each on a fresh
// bare cluster built from s.Params.
func pass1Cells(s Spec, placements ...dsmsort.Placement) ([]*dsmsort.Pass1Result, error) {
	out := make([]*dsmsort.Pass1Result, len(placements))
	cfg := s.Sort
	for i, pl := range placements {
		cfg.Placement = pl
		cl, err := bareCluster(s.Params)
		if err != nil {
			return nil, err
		}
		r, err := formRuns(cl, s.N, 0, cfg)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", pl, err)
		}
		out[i] = r
	}
	return out, nil
}

// hostImbalance reads the hosts' CPU utilization traces and their mean spread
// over the run's whole windows.
func hostImbalance(cl *cluster.Cluster, elapsed sim.Duration) ([]*telemetry.UtilTrace, float64) {
	traces := make([]*telemetry.UtilTrace, len(cl.Hosts))
	series := make([][]float64, len(cl.Hosts))
	for i, h := range cl.Hosts {
		traces[i] = h.CPUTrace
		_, series[i] = h.CPUTrace.Series()
	}
	return traces, loadmgr.ImbalanceSeries(series, int(elapsed/cl.Params.UtilWindow))
}

// sortCell runs the full two-pass DSM-Sort over uniform input on a bare
// cluster built from s.Params, returning the input's and the validated
// output's storage to the buffer pool.
func sortCell(s Spec) (*dsmsort.Result, error) {
	if s.N < 1 {
		return nil, fmt.Errorf("N must be >= 1, have %d", s.N)
	}
	cl, err := bareCluster(s.Params)
	if err != nil {
		return nil, err
	}
	in := dsmsort.MakeInput(cl, s.N, records.Uniform{}, s.Sort.Seed, s.Sort.PacketRecords)
	defer in.Free()
	res, err := dsmsort.Sort(cl, s.Sort, in)
	if err != nil {
		return nil, err
	}
	res.Output.Free()
	return res, nil
}

// stripeSets generates n records from gen straight into pooled packets and
// loads them onto one container set per ASU, round-robin, outside measured
// time; loaded, when non-nil, sees each packet as it is stored. Unlike
// dsmsort's input loader it leaves the sets unflushed, which the pipelines
// scanning them (adapt, filter, isolation) have always been timed with.
func stripeSets(cl *cluster.Cluster, n int, gen *records.Generator, packetRecords int,
	loaded func(records.Buffer)) ([]*container.Set, error) {
	if n < 1 {
		return nil, fmt.Errorf("N must be >= 1, have %d", n)
	}
	sets := make([]*container.Set, len(cl.ASUs))
	recSize := cl.Params.RecordSize
	cl.Sim.Spawn("load", func(p *sim.Proc) {
		for i, asu := range cl.ASUs {
			sets[i] = container.NewSet(fmt.Sprintf("in%d", i), bte.NewDisk(asu.Disk), recSize)
		}
		for pi, off := 0, 0; off < n; pi, off = pi+1, off+packetRecords {
			buf := records.NewPooled(min(packetRecords, n-off), recSize)
			gen.Fill(buf)
			if loaded != nil {
				loaded(buf)
			}
			sets[pi%len(sets)].Add(p, container.NewPacket(buf))
		}
	})
	return sets, cl.Sim.Run()
}

// distSortPipeline stripes n records from gen over the ASUs and builds run
// formation's front half by hand — distribute on every ASU, fed by a scan of
// its own set and routed by policy to block sort on the hosts, the sorted
// runs discarded — for the harnesses that interfere with it while it runs
// (adapt swaps the edge's policy, isolation competes for the ASU CPUs). done
// fires when the last run has been sorted.
func distSortPipeline(cl *cluster.Cluster, n int, gen *records.Generator, alpha, beta, packetRecords int,
	policy route.Policy, done func()) (*functor.Pipeline, *functor.Edge, error) {
	sets, err := stripeSets(cl, n, gen, packetRecords, nil)
	if err != nil {
		return nil, nil, err
	}
	recSize := cl.Params.RecordSize
	pl := functor.NewPipeline(cl)
	dist := pl.AddStage("distribute", cl.ASUs, func() functor.Kernel {
		return functor.Adapt(functor.NewDistribute(alpha), recSize, packetRecords)
	})
	srt := pl.AddStage("blocksort", cl.Hosts, func() functor.Kernel {
		return functor.NewBlockSort(beta, recSize)
	})
	edge := dist.ConnectTo(srt, policy)
	srt.Terminal().Done = done
	for i, set := range sets {
		pl.AddSource(fmt.Sprintf("read%d", i), cl.ASUs[i], set.Scan(i, false), dist, route.Pin(i))
	}
	return pl, edge, nil
}
