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
	"slices"
	"strings"

	"lmas/internal/bufpool"
	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/experiments"
	"lmas/internal/prof"
	"lmas/internal/recorder"
	"lmas/internal/telemetry"
	"lmas/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dsmsort:", err)
		os.Exit(1)
	}
}

// run is the command; every path out of it, failed or not, closes what it
// opened (the -trace file, the profiles).
func run() error {
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
	names := make([]string, len(placements))
	for i, p := range placements {
		names[i] = p.String()
	}
	var (
		placement = flag.String("placement", dsmsort.Active.String(), strings.Join(names, "|"))
		netMBps   = flag.Float64("net", 0, "per-interface network bandwidth override (MB/s, 0 = default)")
		traceFile = flag.String("trace", "", "write a structured trace of the run (.json for Perfetto/chrome://tracing, .csv for a flat series)")
		report    = flag.String("report", "", "write a machine-readable RunReport (JSON) of the run")
		cpuprof   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write a pprof heap profile to this file")
		record    = flag.String("record", "", "record the run into this run store directory")
	)
	flag.Parse()
	if !(*netMBps >= 0) {
		return fmt.Errorf("-net must be >= 0 MB/s, have %g", *netMBps)
	}

	stopProf, err := prof.Start(*cpuprof, *memprof)
	if err != nil {
		return err
	}
	defer stopProf()

	i := slices.Index(names, *placement)
	if i < 0 {
		return fmt.Errorf("unknown placement %q (want %s)", *placement, strings.Join(names, "|"))
	}
	spec.Placement = placements[i]
	var out *traceOut
	if *traceFile != "" {
		spec.Trace = trace.New()
		if out, err = openTrace(spec.Trace, *traceFile); err != nil {
			return err
		}
		defer out.close()
	}
	var store *recorder.Store
	if *record != "" {
		if store, err = recorder.OpenStore(*record); err != nil {
			return err
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
		return err
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

	if out != nil {
		if err := out.close(); err != nil {
			return err
		}
		fmt.Printf("  trace: %d events on %d tracks -> %s\n",
			spec.Trace.Events(), spec.Trace.Tracks(), *traceFile)
	}
	if *report != "" {
		if err := telemetry.WriteJSON(*report, rep); err != nil {
			return err
		}
		fmt.Printf("  report: %d counters, %d histograms, %d decisions -> %s\n",
			len(rep.Counters), len(rep.Latencies), len(rep.Decisions), *report)
	}
	if store != nil {
		if err := store.Err(); err != nil {
			return err
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
	return nil
}

// traceOut is the -trace file and the writer its sink streams the run into:
// a flat CSV time series when the name ends in .csv, Chrome trace-event JSON
// (Perfetto, chrome://tracing) otherwise.
type traceOut struct {
	f *os.File
	w interface {
		trace.Consumer
		Close() error
	}
}

// openTrace creates path and attaches its writer to sink, so a path that
// cannot be written fails before the run starts.
func openTrace(sink *trace.Sink, path string) (*traceOut, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	out := &traceOut{f: f}
	if strings.HasSuffix(path, ".csv") {
		out.w = trace.NewCSVWriter(f)
	} else {
		out.w = trace.NewChromeWriter(f)
	}
	sink.Attach(out.w)
	return out, nil
}

// close ends the document and closes the file, returning the first error;
// calls after the first do nothing.
func (out *traceOut) close() error {
	if out.f == nil {
		return nil
	}
	err := out.w.Close()
	if cerr := out.f.Close(); err == nil {
		err = cerr
	}
	out.f = nil
	return err
}

// placements is every DSM-Sort placement: -placement accepts, and its usage
// text lists, exactly their String names.
var placements = []dsmsort.Placement{dsmsort.Active, dsmsort.Conventional, dsmsort.Hybrid}
