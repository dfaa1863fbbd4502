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

	"lmas/internal/bufpool"
	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/experiments"
	"lmas/internal/plot"
	"lmas/internal/prof"
	"lmas/internal/recorder"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
	"lmas/internal/trace"
)

func main() {
	spec := experiments.SortRunSpec{Name: "dsmsort"}
	flag.IntVar(&spec.N, "n", 1<<18, "records to sort")
	flag.IntVar(&spec.Hosts, "hosts", 1, "host count")
	flag.IntVar(&spec.ASUs, "asus", 16, "ASU count")
	flag.Float64Var(&spec.C, "c", 8, "host/ASU power ratio")
	flag.IntVar(&spec.Alpha, "alpha", 16, "distribute order")
	flag.IntVar(&spec.Beta, "beta", 64, "run length (records)")
	flag.IntVar(&spec.Gamma2, "gamma2", 16, "ASU-side merge fan-in")
	flag.IntVar(&spec.PacketRecords, "packet", 64, "packet size (records)")
	flag.StringVar(&spec.Policy, "policy", "static", "static|rr|sr|load-aware")
	flag.StringVar(&spec.Dist, "dist", "uniform", "uniform|exp|zipf|sorted|halves")
	flag.Int64Var(&spec.Seed, "seed", 42, "workload seed")
	flag.BoolVar(&spec.Critpath, "critpath", false, "attach the critical-path profiler and print the bottleneck verdict")
	flag.StringVar(&spec.Experiment, "experiment", "adhoc", "experiment name for the recorded run")
	var (
		placement = flag.String("placement", "active", "active|conventional")
		netMBps   = flag.Float64("net", 0, "per-interface network bandwidth override (MB/s, 0 = default)")
		progress  = flag.Int("progress", 0, "print a progress table sampled at this virtual-ms interval; implies -gauges at the same interval unless -gauges is given (0 = off)")
		traceFile = flag.String("trace", "", "write a structured trace of the run (.json for Perfetto/chrome://tracing, .csv for a flat series)")
		report    = flag.String("report", "", "write a machine-readable RunReport (JSON) of the run")
		cpuprof   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write a pprof heap profile to this file")
		record    = flag.String("record", "", "record the run into this run store directory")
		sampleMs  = flag.Int("sample", 100, "recorder sampling interval in virtual ms")
		gaugeMs   = flag.Int("gauges", 0, "also emit periodic node/queue/stage gauges into the report at this virtual-ms interval (0 = off)")
	)
	flag.Parse()
	spec.SampleEvery = sim.Duration(*sampleMs) * sim.Millisecond
	if *gaugeMs == 0 {
		*gaugeMs = *progress // the table is rendered from the report's gauges
	}
	spec.GaugeInterval = sim.Duration(*gaugeMs) * sim.Millisecond

	stopProf, err := prof.Start(*cpuprof, *memprof)
	if err != nil {
		fail(err)
	}
	defer stopProf()

	switch *placement {
	case "active":
		spec.Placement = dsmsort.Active
	case "conventional":
		spec.Placement = dsmsort.Conventional
	default:
		fail(fmt.Errorf("unknown placement %q", *placement))
	}
	if *traceFile != "" {
		spec.Trace = trace.New()
	}
	var store *recorder.Store
	if *record != "" {
		if store, err = recorder.OpenStore(*record); err != nil {
			fail(err)
		}
		spec.Record = store
	}

	// The shared lifecycle runs the sort; what only this front end has — the
	// -net override, pool-health gauges that are meaningful because the
	// process holds exactly one run — rides on its hooks.
	var cfg dsmsort.Config
	rep, res, err := experiments.RunSortWith(spec,
		func(p *cluster.Params, c *dsmsort.Config) {
			if *netMBps > 0 {
				p.NetBandwidth = *netMBps * 1e6
			}
			cfg = *c
		},
		func(cl *cluster.Cluster, res *dsmsort.Result) {
			// Must land in the registry before the report snapshots it, and
			// before the lifecycle returns the run's storage to the pool.
			cl.Telemetry.FillBufpoolGauges(cl.Sim.Now(), bufpool.ClassStatsSnapshot())
		})
	if err != nil {
		fail(err)
	}
	if *progress > 0 {
		stages := []string{"distribute", "blocksort", "collect"}
		if cfg.Placement == dsmsort.Conventional {
			stages = []string{"host-dist-sort", "writeback"}
		}
		stages = append(stages, "merge.asu", "merge.host", "merge.collect")
		var nodes []string
		for _, n := range rep.Nodes[:spec.Hosts+1] { // every host and the first ASU
			nodes = append(nodes, n.Name)
		}
		fmt.Println(progressTable(rep, stages, nodes))
	}
	hostOps, asuOps := res.MeasuredWork()
	fmt.Printf("sorted %d records (%s, %s) on %d host(s) + %d ASU(s), c=%g\n",
		spec.N, spec.Dist, cfg.Placement, spec.Hosts, spec.ASUs, spec.C)
	fmt.Printf("  pass 1 (run formation): %8.4fs   %d runs\n",
		res.Pass1.Elapsed.Seconds(), res.Pass1.Runs)
	fmt.Printf("  pass 2 (merge):         %8.4fs   %d local level(s)\n",
		res.Merge.Elapsed.Seconds(), res.Merge.ASUMergeLevels)
	fmt.Printf("  total:                  %8.4fs\n", res.Elapsed.Seconds())
	fmt.Printf("  work: host %.1f Mops, ASU %.1f Mops (n log(abg) = %.1f M compares)\n",
		hostOps/1e6, asuOps/1e6, cfg.TotalCompares(spec.N, cfg.Gamma1(spec.ASUs))/1e6)
	fmt.Printf("  interconnect: %.1f MB in pass 1\n", float64(res.Pass1.NetBytes)/1e6)
	fmt.Println("  output validated: sorted, complete, uncorrupted")

	if spec.Trace != nil {
		if err := experiments.WriteTrace(spec.Trace, *traceFile); err != nil {
			fail(err)
		}
		fmt.Printf("  trace: %d events on %d tracks -> %s\n",
			spec.Trace.Events(), spec.Trace.Tracks(), *traceFile)
	}
	if *report != "" {
		if err := telemetry.WriteJSON(*report, rep); err != nil {
			fail(err)
		}
		fmt.Printf("  report: %d counters, %d histograms, %d decisions -> %s\n",
			len(rep.Counters), len(rep.Latencies), len(rep.Decisions), *report)
	}
	if store != nil {
		if err := store.Err(); err != nil {
			fail(err)
		}
		fmt.Printf("  recorded -> %s (experiment %q)\n", *record, spec.Experiment)
	}
	if cp := rep.Critpath; cp != nil {
		fmt.Printf("  critpath: %d chains, %d charges; bottleneck %s (%.1f%% of per-instance congestion)\n",
			cp.Chains, cp.Charges, cp.Verdict.Observed, cp.Verdict.ObservedShare*100)
		if cp.Verdict.Predicted != "" {
			fmt.Printf("  critpath: model predicts %s (%.3g rec/s) — agreement: %s\n",
				cp.Verdict.Predicted, cp.Verdict.PredictedRate, cp.Verdict.Agree)
		}
	}
}

// progressTable renders the report's periodic gauges (-gauges, which
// -progress implies) as the paper's progress view: one row per sampler tick
// with each stage's cumulative records consumed and each node's CPU
// utilization over the interval the tick closes. A stage that has not started
// by a tick reads zero.
func progressTable(rep *telemetry.RunReport, stages, nodes []string) *plot.Table {
	gauges := make(map[string][]telemetry.GaugeSample, len(rep.Gauges))
	for _, g := range rep.Gauges {
		gauges[g.Name] = g.Samples
	}
	headers := []string{"t(s)"}
	headers = append(headers, stages...)
	for _, n := range nodes {
		headers = append(headers, n+" util")
	}
	t := plot.NewTable("progress", headers...)
	// The node gauges tick from the sampler's first wake-up to the run's end;
	// a stage's gauge starts at the first tick after its pass registered it.
	ticks := gauges["node."+nodes[0]+".cpu.busy_sec"]
	prevT := int64(0)
	prevBusy := make([]float64, len(nodes))
	for i, tick := range ticks {
		row := []any{fmt.Sprintf("%.3f", sim.Time(tick.T).Seconds())}
		for _, st := range stages {
			recs := int64(0)
			series := gauges["stage."+st+".records_in"]
			if late := len(ticks) - len(series); i >= late {
				recs = int64(series[i-late].V)
			}
			row = append(row, recs)
		}
		for j, n := range nodes {
			busy := gauges["node."+n+".cpu.busy_sec"][i].V
			util := (busy - prevBusy[j]) / sim.Duration(tick.T-prevT).Seconds()
			row = append(row, fmt.Sprintf("%.2f", plot.Clamp01(util)))
			prevBusy[j] = busy
		}
		prevT = tick.T
		t.AddRow(row...)
	}
	return t
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dsmsort:", err)
	os.Exit(1)
}
