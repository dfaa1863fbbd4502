package main

import (
	"flag"
	"fmt"
	"strings"

	"lmas/internal/dsmsort"
	"lmas/internal/experiments"
	"lmas/internal/plot"
	"lmas/internal/recorder"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
	"lmas/internal/trace"
)

// experiment is one asulab command. Adding an experiment is one entry in
// table plus its workload function in internal/experiments.
type experiment struct {
	name    string
	aliases []string
	summary string // one line, shown by usage
	solo    bool   // writes a file rather than a table: not part of `all`
	// bind registers the experiment's flags on fs and returns the runner to
	// call once fs has parsed the command line.
	bind func(fs *flag.FlagSet) func() error
}

// table lists the commands in usage order, which is also `all`'s run order.
var table = []experiment{
	{name: "fig9", summary: "DSM-Sort speedup vs #ASUs per alpha (paper Figure 9)",
		bind: tabled(experiments.DefaultFig9Options, experiments.RunFig9, func(fs *flag.FlagSet, o *experiments.Fig9Options) {
			fs.IntVar(&o.N, "n", o.N, "input records")
			fs.Int64Var(&o.Seed, "seed", o.Seed, "workload seed")
			fs.Float64Var(&o.C, "c", o.C, "host/ASU power ratio")
		})},
	{name: "fig10", summary: "host utilization under skew, static vs load-managed (Figure 10)", bind: bindFig10},
	{name: "cratio", summary: "speedup sensitivity to the host/ASU power ratio c (TAB-C)",
		bind: tabled(experiments.DefaultCRatioOptions, experiments.RunCRatio, func(fs *flag.FlagSet, o *experiments.CRatioOptions) {
			fs.IntVar(&o.N, "n", o.N, "input records")
			fs.IntVar(&o.Alpha, "alpha", o.Alpha, "distribute order")
		})},
	{name: "gamma", summary: "merge split between ASUs and hosts (TAB-GAMMA)",
		bind: tabled(experiments.DefaultGammaOptions, experiments.RunGamma, func(fs *flag.FlagSet, o *experiments.GammaOptions) {
			fs.IntVar(&o.N, "n", o.N, "input records")
		})},
	{name: "routes", summary: "routing-policy ablation under skew (TAB-ROUTE)",
		bind: tabled(experiments.DefaultRoutingOptions, experiments.RunRouting, func(fs *flag.FlagSet, o *experiments.RoutingOptions) {
			fs.IntVar(&o.N, "n", o.N, "input records")
		})},
	{name: "rtree", summary: "partitioned vs striped distributed R-trees (TAB-RTREE)",
		bind: tabled(experiments.DefaultRTreeOptions, experiments.RunRTree, func(fs *flag.FlagSet, o *experiments.RTreeOptions) {
			fs.IntVar(&o.Entries, "entries", o.Entries, "indexed rectangles")
			fs.IntVar(&o.ASUs, "asus", o.ASUs, "ASU count")
		})},
	{name: "terraflow", summary: "TerraFlow watershed phase breakdown (TAB-TERRA)",
		bind: tabled(experiments.DefaultTerraOptions, experiments.RunTerra, func(fs *flag.FlagSet, o *experiments.TerraOptions) {
			fs.IntVar(&o.W, "w", o.W, "grid width")
			fs.IntVar(&o.H, "h", o.H, "grid height")
			fs.IntVar(&o.ASUs, "asus", o.ASUs, "ASU count")
		})},
	{name: "iso", aliases: []string{"isolation"}, summary: "performance isolation of foreground storage requests (TAB-ISO)",
		bind: tabled(experiments.DefaultIsolationOptions, experiments.RunIsolation, func(fs *flag.FlagSet, o *experiments.IsolationOptions) {
			fs.IntVar(&o.N, "n", o.N, "input records")
		})},
	{name: "hybrid", summary: "functor migration between ASUs and hosts (TAB-HYBRID)",
		bind: tabled(experiments.DefaultHybridOptions, experiments.RunHybrid, func(fs *flag.FlagSet, o *experiments.HybridOptions) {
			fs.IntVar(&o.N, "n", o.N, "input records")
			fs.IntVar(&o.Alpha, "alpha", o.Alpha, "distribute order")
		})},
	{name: "packet", summary: "interconnect packet-size sweep (TAB-PACKET)",
		bind: tabled(experiments.DefaultPacketOptions, experiments.RunPacket, func(fs *flag.FlagSet, o *experiments.PacketOptions) {
			fs.IntVar(&o.N, "n", o.N, "input records")
		})},
	{name: "filter", summary: "selection-scan filter pushdown vs selectivity (TAB-FILTER)",
		bind: tabled(experiments.DefaultFilterOptions, experiments.RunFilter, func(fs *flag.FlagSet, o *experiments.FilterOptions) {
			fs.IntVar(&o.N, "n", o.N, "input records")
			fs.IntVar(&o.ASUs, "asus", o.ASUs, "ASU count")
		})},
	{name: "adapt", summary: "mid-run routing-policy adaptation under skew (TAB-ADAPT)",
		bind: tabled(experiments.DefaultAdaptOptions, experiments.RunAdapt, func(fs *flag.FlagSet, o *experiments.AdaptOptions) {
			fs.IntVar(&o.N, "n", o.N, "input records")
		}, func(res *experiments.AdaptResult) {
			for _, cell := range res.Cells {
				for _, d := range cell.Decisions {
					fmt.Printf("decision [%s] t=%.3fs %s: %s (%s)\n",
						cell.Strategy, (sim.Duration(d.T)).Seconds(), d.Source, d.Action, d.Detail)
				}
			}
		})},
	{name: "onepass", summary: "one-pass cluster sort vs DSM-Sort across the memory wall (TAB-ONEPASS)",
		bind: tabled(experiments.DefaultOnePassOptions, experiments.RunOnePass, func(fs *flag.FlagSet, o *experiments.OnePassOptions) {
			fs.IntVar(&o.Hosts, "hosts", o.Hosts, "sort-node count")
		})},
	{name: "openloop", summary: "open-loop churn: Poisson job stream over short-lived procs (TAB-CHURN)", bind: bindOpenLoop},
	{name: "trace", summary: "record a structured trace of a small DSM-Sort (Perfetto JSON or CSV)", solo: true, bind: bindTrace},
}

// tabled is the common command shape: default options with a few fields
// bound to flags, one Run call, the result's table on stdout, then whatever
// the experiment prints below its table.
func tabled[O any, R interface{ Table() *plot.Table }](defaults func() O, run func(O) (R, error),
	flags func(*flag.FlagSet, *O), below ...func(R)) func(*flag.FlagSet) func() error {
	return func(fs *flag.FlagSet) func() error {
		opt := defaults()
		flags(fs, &opt)
		return func() error {
			res, err := run(opt)
			if err != nil {
				return err
			}
			fmt.Println(res.Table())
			for _, print := range below {
				print(res)
			}
			return nil
		}
	}
}

func bindFig10(fs *flag.FlagSet) func() error {
	opt := experiments.DefaultFig10Options()
	fs.IntVar(&opt.N, "n", opt.N, "input records")
	fs.Int64Var(&opt.Seed, "seed", opt.Seed, "workload seed")
	fs.BoolVar(&opt.Critpath, "critpath", opt.Critpath, "attach the critical-path profiler to both runs")
	report := fs.String("report", "", "write the load-managed run's RunReport here (and the static run's next to it as <name>.static.json)")
	record := fs.String("record", "", "record both runs into this run store directory")
	fs.StringVar(&opt.Experiment, "experiment", "fig10", "experiment name for recorded runs")
	return func() error {
		var store *recorder.Store
		if *record != "" {
			var err error
			if store, err = recorder.OpenStore(*record); err != nil {
				return err
			}
			opt.Record = store
		}
		res, err := experiments.RunFig10(opt)
		if err != nil {
			return err
		}
		if store != nil {
			if err := store.Err(); err != nil {
				return err
			}
			fmt.Printf("recorded both runs -> %s (experiment %q)\n", *record, opt.Experiment)
		}
		fmt.Println(res.Summary())
		for _, run := range []experiments.Fig10Run{res.Static, res.Managed} {
			if cp := run.Report.Critpath; cp != nil {
				fmt.Printf("critpath [%s]: bottleneck %s (%.1f%% of per-instance congestion), predicted %s — agreement: %s\n",
					run.Policy, cp.Verdict.Observed, cp.Verdict.ObservedShare*100,
					cp.Verdict.Predicted, cp.Verdict.Agree)
			}
		}
		fmt.Println(res.Table())
		if *report != "" {
			if err := telemetry.WriteJSON(*report, res.Managed.Report); err != nil {
				return err
			}
			staticPath := strings.TrimSuffix(*report, ".json") + ".static.json"
			if err := telemetry.WriteJSON(staticPath, res.Static.Report); err != nil {
				return err
			}
			fmt.Printf("reports: %s (load-managed), %s (static baseline) — compare with lmasreport diff\n",
				*report, staticPath)
		}
		return nil
	}
}

func bindOpenLoop(fs *flag.FlagSet) func() error {
	opt := experiments.DefaultOpenLoopOptions()
	fs.IntVar(&opt.Jobs, "jobs", opt.Jobs, "total arrivals")
	fs.Float64Var(&opt.Rate, "rate", opt.Rate, "arrival rate (jobs per virtual second)")
	fs.IntVar(&opt.Hosts, "hosts", opt.Hosts, "host count")
	fs.IntVar(&opt.ASUs, "asus", opt.ASUs, "ASU count")
	fs.Float64Var(&opt.ZipfS, "zipf", opt.ZipfS, "Zipf skew for ASU choice (<=1 uniform)")
	fs.Int64Var(&opt.Seed, "seed", opt.Seed, "workload seed")
	timeoutMs := fs.Float64("timeout", opt.Timeout.Seconds()*1e3,
		"base SLO deadline in virtual ms; the ladder arms horizons 1..deadlines times this")
	report := fs.String("report", "", "write the run's RunReport here (byte-identical run to run: CI cmps two runs)")
	record := fs.String("record", "", "also stream the run into this run-store directory")
	fs.StringVar(&opt.Experiment, "experiment", opt.Experiment, "experiment label for recorded runs")
	return func() error {
		opt.Timeout = sim.Duration(*timeoutMs * float64(sim.Millisecond))
		var store *recorder.Store
		if *record != "" {
			var err error
			if store, err = recorder.OpenStore(*record); err != nil {
				return err
			}
			opt.Record = store
		}
		res, err := experiments.RunOpenLoop(opt)
		if err != nil {
			return err
		}
		if store != nil {
			if err := store.Err(); err != nil {
				return err
			}
		}
		fmt.Println(res.Table())
		if *report != "" {
			if err := telemetry.WriteJSON(*report, res.Report); err != nil {
				return err
			}
			fmt.Printf("report: %s\n", *report)
		}
		return nil
	}
}

// bindTrace records a structured trace of one small DSM-Sort run and writes
// it to a file: Chrome trace-event JSON (open in Perfetto or
// chrome://tracing) or, with a .csv output name, a flat time series.
func bindTrace(fs *flag.FlagSet) func() error {
	n := fs.Int("n", 1<<14, "input records")
	asus := fs.Int("asus", 4, "ASU count")
	seed := fs.Int64("seed", 42, "workload seed")
	out := fs.String("o", "dsmsort-trace.json", "output file (.json or .csv)")
	return func() error {
		sink := trace.New()
		_, res, err := experiments.RunSortReport(experiments.SortRunSpec{
			Name: "trace", N: *n, Hosts: 1, ASUs: *asus, C: 8,
			Alpha: 8, Beta: 64, Gamma2: 8, PacketRecords: 64,
			Placement: dsmsort.Active, Policy: "static", Dist: "uniform",
			Seed: *seed, Trace: sink,
		})
		if err != nil {
			return err
		}
		if err := experiments.WriteTrace(sink, *out); err != nil {
			return err
		}
		fmt.Printf("sorted %d records in %.4fs virtual; %d events on %d tracks -> %s\n",
			*n, res.Elapsed.Seconds(), sink.Events(), sink.Tracks(), *out)
		return nil
	}
}
