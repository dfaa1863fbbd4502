// Command dsmsort runs one configurable DSM-Sort execution on an emulated
// active-storage cluster and reports timing, work split, and validation.
//
//	dsmsort -n 262144 -hosts 1 -asus 16 -c 8 -alpha 16 -beta 64 \
//	        -gamma2 16 -placement active -policy static -dist uniform
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lmas/internal/bufpool"
	"lmas/internal/cluster"
	"lmas/internal/critpath"
	"lmas/internal/dsmsort"
	"lmas/internal/experiments"
	"lmas/internal/prof"
	"lmas/internal/recorder"
	"lmas/internal/route"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
	"lmas/internal/trace"
)

func main() {
	var (
		n         = flag.Int("n", 1<<18, "records to sort")
		hosts     = flag.Int("hosts", 1, "host count")
		asus      = flag.Int("asus", 16, "ASU count")
		c         = flag.Float64("c", 8, "host/ASU power ratio")
		alpha     = flag.Int("alpha", 16, "distribute order")
		beta      = flag.Int("beta", 64, "run length (records)")
		gamma2    = flag.Int("gamma2", 16, "ASU-side merge fan-in")
		packet    = flag.Int("packet", 64, "packet size (records)")
		placement = flag.String("placement", "active", "active|conventional")
		policy    = flag.String("policy", "static", "static|rr|sr|load-aware")
		dist      = flag.String("dist", "uniform", "uniform|exp|zipf|sorted|halves")
		seed      = flag.Int64("seed", 42, "workload seed")
		netMBps   = flag.Float64("net", 0, "per-interface network bandwidth override (MB/s, 0 = default)")
		critflag  = flag.Bool("critpath", false, "attach the critical-path profiler and print the bottleneck verdict")
		progress  = flag.Int("progress", 0, "progress sampling interval in virtual ms (0 = off)")
		traceFile = flag.String("trace", "", "write a structured trace of the run (.json for Perfetto/chrome://tracing, .csv for a flat series)")
		report    = flag.String("report", "", "write a machine-readable RunReport (JSON) of the run")
		cpuprof   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write a pprof heap profile to this file")
		record    = flag.String("record", "", "record the run into this run store directory")
		expName   = flag.String("experiment", "adhoc", "experiment name for the recorded run")
		sampleMs  = flag.Int("sample", 100, "recorder sampling interval in virtual ms")
		gaugeMs   = flag.Int("gauges", 0, "also emit periodic node/queue gauges into the report at this virtual-ms interval (0 = off)")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprof, *memprof)
	if err != nil {
		fail(err)
	}
	defer stopProf()

	params := cluster.DefaultParams()
	params.Hosts, params.ASUs, params.C = *hosts, *asus, *c
	if *netMBps > 0 {
		params.NetBandwidth = *netMBps * 1e6
	}
	if err := params.Validate(); err != nil {
		fail(err)
	}
	cl := cluster.New(params)

	var sink *trace.Sink
	if *traceFile != "" {
		sink = trace.New()
		cl.AttachTrace(sink)
	}
	if *report != "" || *record != "" || *gaugeMs > 0 {
		cl.AttachTelemetry(telemetry.NewRegistry(), 0)
	}
	var pf *critpath.Profiler
	if *critflag {
		pf = critpath.New()
		cl.AttachProfiler(pf)
	}
	workload := map[string]any{
		"program":   "dsmsort",
		"n":         *n,
		"alpha":     *alpha,
		"beta":      *beta,
		"gamma2":    *gamma2,
		"packet":    *packet,
		"placement": *placement,
		"policy":    *policy,
		"dist":      *dist,
	}
	var rec recorder.Recorder
	var store *recorder.Store
	if *record != "" {
		store, err = recorder.OpenStore(*record)
		if err != nil {
			fail(err)
		}
		rec = store.NewRun()
		ccfg := cl.Config()
		rec.Begin(&recorder.Header{
			Experiment: *expName,
			Name:       "dsmsort",
			ConfigHash: recorder.ConfigHash(ccfg, workload, *seed),
			Seed:       *seed,
			Config:     ccfg,
			Workload:   workload,
		})
		cl.AttachRecorder(rec, sim.Duration(*sampleMs)*sim.Millisecond)
	}
	if *gaugeMs > 0 {
		cl.AttachPeriodicGauges(sim.Duration(*gaugeMs) * sim.Millisecond)
	}

	in, err := dsmsort.MakeInputNamed(cl, *n, *dist, *seed, *packet)
	if err != nil {
		fail(err)
	}

	pol, err := route.ByName(*policy, *alpha, *seed)
	if err != nil {
		fail(err)
	}
	cfg := dsmsort.Config{
		Alpha:         *alpha,
		Beta:          *beta,
		Gamma2:        *gamma2,
		PacketRecords: *packet,
		SortPolicy:    pol,
		Seed:          *seed,
	}
	switch *placement {
	case "active":
		cfg.Placement = dsmsort.Active
	case "conventional":
		cfg.Placement = dsmsort.Conventional
	default:
		fail(fmt.Errorf("unknown placement %q", *placement))
	}

	if *progress > 0 {
		cfg.ProgressInterval = sim.Duration(*progress) * sim.Millisecond
	}
	res, err := dsmsort.Sort(cl, cfg, in)
	if err != nil {
		fail(err)
	}
	cl.FinishSampling()
	if res.Pass1.Monitor != nil {
		stages := []string{"distribute", "blocksort", "collect"}
		if cfg.Placement == dsmsort.Conventional {
			stages = []string{"host-dist-sort", "writeback"}
		}
		nodes := cl.Hosts
		if len(cl.ASUs) > 0 {
			nodes = append(append([]*cluster.Node{}, cl.Hosts...), cl.ASUs[0])
		}
		fmt.Println(res.Pass1.Monitor.Table(stages, nodes))
	}
	hostOps, asuOps := res.MeasuredWork()
	fmt.Printf("sorted %d records (%s, %s) on %d host(s) + %d ASU(s), c=%g\n",
		*n, *dist, cfg.Placement, *hosts, *asus, *c)
	fmt.Printf("  pass 1 (run formation): %8.4fs   %d runs\n",
		res.Pass1.Elapsed.Seconds(), res.Pass1.Runs)
	fmt.Printf("  pass 2 (merge):         %8.4fs   %d local level(s)\n",
		res.Merge.Elapsed.Seconds(), res.Merge.ASUMergeLevels)
	fmt.Printf("  total:                  %8.4fs\n", res.Elapsed.Seconds())
	fmt.Printf("  work: host %.1f Mops, ASU %.1f Mops (n log(abg) = %.1f M compares)\n",
		hostOps/1e6, asuOps/1e6, cfg.TotalCompares(*n, cfg.Gamma1(*asus))/1e6)
	fmt.Printf("  interconnect: %.1f MB in pass 1\n", float64(res.Pass1.NetBytes)/1e6)
	fmt.Println("  output validated: sorted, complete, uncorrupted")

	if sink != nil {
		if err := writeTrace(sink, *traceFile); err != nil {
			fail(err)
		}
		fmt.Printf("  trace: %d events on %d tracks -> %s\n",
			sink.Events(), sink.Tracks(), *traceFile)
	}
	var cpRep *critpath.Report
	if *report != "" || rec != nil {
		// Pool-health gauges must land in the registry before BuildReport
		// snapshots it. This is a single-run process, so the process-global
		// default pool's counters describe exactly this run.
		cl.Telemetry.FillBufpoolGauges(cl.Sim.Now(), bufpool.ClassStatsSnapshot())
		rep := cl.BuildReport("dsmsort", *seed, res.Elapsed)
		rep.Workload = workload
		cpRep = rep.Critpath
		setPrediction(cpRep, params, cfg)
		if *report != "" {
			if err := telemetry.WriteJSON(*report, rep); err != nil {
				fail(err)
			}
			fmt.Printf("  report: %d counters, %d histograms, %d decisions -> %s\n",
				len(rep.Counters), len(rep.Histograms), len(rep.Decisions), *report)
		}
		if rec != nil {
			rec.Finish(rep)
			if err := store.Err(); err != nil {
				fail(err)
			}
			fmt.Printf("  recorded -> %s (experiment %q)\n", *record, *expName)
		}
	} else if pf != nil {
		cpRep = pf.Report()
		setPrediction(cpRep, params, cfg)
	}
	if cpRep != nil {
		fmt.Printf("  critpath: %d chains, %d charges; bottleneck %s (%.1f%% of per-instance congestion)\n",
			cpRep.Chains, cpRep.Charges, cpRep.Verdict.Observed, cpRep.Verdict.ObservedShare*100)
		if cpRep.Verdict.Predicted != "" {
			fmt.Printf("  critpath: model predicts %s (%.3g rec/s) — agreement: %s\n",
				cpRep.Verdict.Predicted, cpRep.Verdict.PredictedRate, cpRep.Verdict.Agree)
		}
	}
}

// setPrediction stamps the Pass1Model's analytic bottleneck into the critpath
// verdict; a nil report or an uncovered placement leaves it observation-only.
func setPrediction(cp *critpath.Report, params cluster.Params, cfg dsmsort.Config) {
	if cp == nil {
		return
	}
	if rates, ok := experiments.PredictRates(params, cfg.Placement, cfg.Alpha, cfg.Beta); ok {
		cls, rate := rates.Bottleneck()
		cp.SetPrediction(cls, rate)
	}
}

// writeTrace exports the sink to path, as CSV when the extension asks for
// it and Chrome trace-event JSON otherwise.
func writeTrace(sink *trace.Sink, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = sink.WriteCSV(f)
	} else {
		err = sink.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dsmsort:", err)
	os.Exit(1)
}
