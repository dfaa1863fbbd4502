// Command asulab drives the emulated active-storage laboratory: it
// regenerates every figure and table of the paper's evaluation plus the
// ablations catalogued in DESIGN.md.
//
// Usage:
//
//	asulab fig9   [-n N] [-seed S] [-c RATIO]
//	asulab fig10  [-n N] [-seed S]
//	asulab cratio [-n N] [-alpha A]
//	asulab gamma  [-n N]
//	asulab routes [-n N]
//	asulab rtree  [-entries N] [-asus D]
//	asulab terraflow [-w W] [-h H] [-asus D]
//	asulab trace  [-n N] [-asus D] [-o FILE]
//	asulab all    (runs everything at default sizes)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/experiments"
	"lmas/internal/recorder"
	"lmas/internal/records"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
	"lmas/internal/trace"
)

func main() {
	// asulab itself takes no flags; parsing the arguments before the
	// subcommand still gives -h its usage text and any other flag Go's
	// "flag provided but not defined" error (exit 2).
	global := flag.NewFlagSet("asulab", flag.ExitOnError)
	global.Usage = usage
	global.Parse(os.Args[1:]) // stops at the first non-flag: the subcommand
	if global.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := global.Arg(0), global.Args()[1:]
	var err error
	switch cmd {
	case "fig9":
		err = runFig9(args)
	case "fig10":
		err = runFig10(args)
	case "cratio":
		err = runCRatio(args)
	case "gamma":
		err = runGamma(args)
	case "routes":
		err = runRoutes(args)
	case "rtree":
		err = runRTree(args)
	case "terraflow":
		err = runTerra(args)
	case "iso", "isolation":
		err = runIso(args)
	case "hybrid":
		err = runHybrid(args)
	case "packet":
		err = runPacket(args)
	case "filter":
		err = runFilter(args)
	case "adapt":
		err = runAdapt(args)
	case "onepass":
		err = runOnePass(args)
	case "openloop":
		err = runOpenLoop(args)
	case "trace":
		err = runTrace(args)
	case "all":
		err = runAll()
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "asulab: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "asulab:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `asulab — emulated active-storage experiments

commands:
  fig9       DSM-Sort speedup vs #ASUs per alpha (paper Figure 9)
  fig10      host utilization under skew, static vs load-managed (Figure 10)
  cratio     speedup sensitivity to the host/ASU power ratio c (TAB-C)
  gamma      merge split between ASUs and hosts (TAB-GAMMA)
  routes     routing-policy ablation under skew (TAB-ROUTE)
  rtree      partitioned vs striped distributed R-trees (TAB-RTREE)
  terraflow  TerraFlow watershed phase breakdown (TAB-TERRA)
  iso        performance isolation of foreground storage requests (TAB-ISO)
  hybrid     functor migration between ASUs and hosts (TAB-HYBRID)
  packet     interconnect packet-size sweep (TAB-PACKET)
  filter     selection-scan filter pushdown vs selectivity (TAB-FILTER)
  adapt      mid-run routing-policy adaptation under skew (TAB-ADAPT)
  onepass    one-pass cluster sort vs DSM-Sort across the memory wall (TAB-ONEPASS)
  openloop   open-loop churn: Poisson job stream over short-lived procs (TAB-CHURN)
  trace      record a structured trace of a small DSM-Sort (Perfetto JSON or CSV)
  all        run everything at default sizes`)
}

func runFig9(args []string) error {
	fs := flag.NewFlagSet("fig9", flag.ExitOnError)
	opt := experiments.DefaultFig9Options()
	fs.IntVar(&opt.N, "n", opt.N, "input records")
	fs.Int64Var(&opt.Seed, "seed", opt.Seed, "workload seed")
	fs.Float64Var(&opt.C, "c", opt.C, "host/ASU power ratio")
	fs.Parse(args)
	res, err := experiments.RunFig9(opt)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func runFig10(args []string) error {
	fs := flag.NewFlagSet("fig10", flag.ExitOnError)
	opt := experiments.DefaultFig10Options()
	fs.IntVar(&opt.N, "n", opt.N, "input records")
	fs.Int64Var(&opt.Seed, "seed", opt.Seed, "workload seed")
	fs.BoolVar(&opt.Critpath, "critpath", opt.Critpath, "attach the critical-path profiler to both runs")
	report := fs.String("report", "", "write the load-managed run's RunReport here (and the static run's next to it as <name>.static.json)")
	record := fs.String("record", "", "record both runs into this run store directory")
	fs.StringVar(&opt.Experiment, "experiment", "fig10", "experiment name for recorded runs")
	fs.Parse(args)
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

func runCRatio(args []string) error {
	fs := flag.NewFlagSet("cratio", flag.ExitOnError)
	opt := experiments.DefaultCRatioOptions()
	fs.IntVar(&opt.N, "n", opt.N, "input records")
	fs.IntVar(&opt.Alpha, "alpha", opt.Alpha, "distribute order")
	fs.Parse(args)
	res, err := experiments.RunCRatio(opt)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func runGamma(args []string) error {
	fs := flag.NewFlagSet("gamma", flag.ExitOnError)
	opt := experiments.DefaultGammaOptions()
	fs.IntVar(&opt.N, "n", opt.N, "input records")
	fs.Parse(args)
	res, err := experiments.RunGamma(opt)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func runRoutes(args []string) error {
	fs := flag.NewFlagSet("routes", flag.ExitOnError)
	opt := experiments.DefaultRoutingOptions()
	fs.IntVar(&opt.N, "n", opt.N, "input records")
	fs.Parse(args)
	res, err := experiments.RunRouting(opt)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func runRTree(args []string) error {
	fs := flag.NewFlagSet("rtree", flag.ExitOnError)
	opt := experiments.DefaultRTreeOptions()
	fs.IntVar(&opt.Entries, "entries", opt.Entries, "indexed rectangles")
	fs.IntVar(&opt.ASUs, "asus", opt.ASUs, "ASU count")
	fs.Parse(args)
	res, err := experiments.RunRTree(opt)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func runTerra(args []string) error {
	fs := flag.NewFlagSet("terraflow", flag.ExitOnError)
	opt := experiments.DefaultTerraOptions()
	fs.IntVar(&opt.W, "w", opt.W, "grid width")
	fs.IntVar(&opt.H, "h", opt.H, "grid height")
	fs.IntVar(&opt.ASUs, "asus", opt.ASUs, "ASU count")
	fs.Parse(args)
	res, err := experiments.RunTerra(opt)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func runIso(args []string) error {
	fs := flag.NewFlagSet("iso", flag.ExitOnError)
	opt := experiments.DefaultIsolationOptions()
	fs.IntVar(&opt.N, "n", opt.N, "input records")
	fs.Parse(args)
	res, err := experiments.RunIsolation(opt)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func runHybrid(args []string) error {
	fs := flag.NewFlagSet("hybrid", flag.ExitOnError)
	opt := experiments.DefaultHybridOptions()
	fs.IntVar(&opt.N, "n", opt.N, "input records")
	fs.IntVar(&opt.Alpha, "alpha", opt.Alpha, "distribute order")
	fs.Parse(args)
	res, err := experiments.RunHybrid(opt)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func runPacket(args []string) error {
	fs := flag.NewFlagSet("packet", flag.ExitOnError)
	opt := experiments.DefaultPacketOptions()
	fs.IntVar(&opt.N, "n", opt.N, "input records")
	fs.Parse(args)
	res, err := experiments.RunPacket(opt)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func runFilter(args []string) error {
	fs := flag.NewFlagSet("filter", flag.ExitOnError)
	opt := experiments.DefaultFilterOptions()
	fs.IntVar(&opt.N, "n", opt.N, "input records")
	fs.IntVar(&opt.ASUs, "asus", opt.ASUs, "ASU count")
	fs.Parse(args)
	res, err := experiments.RunFilter(opt)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func runAdapt(args []string) error {
	fs := flag.NewFlagSet("adapt", flag.ExitOnError)
	opt := experiments.DefaultAdaptOptions()
	fs.IntVar(&opt.N, "n", opt.N, "input records")
	fs.Parse(args)
	res, err := experiments.RunAdapt(opt)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	for _, cell := range res.Cells {
		for _, d := range cell.Decisions {
			fmt.Printf("decision [%s] t=%.3fs %s: %s (%s)\n",
				cell.Strategy, (sim.Duration(d.T)).Seconds(), d.Source, d.Action, d.Detail)
		}
	}
	return nil
}

func runOnePass(args []string) error {
	fs := flag.NewFlagSet("onepass", flag.ExitOnError)
	opt := experiments.DefaultOnePassOptions()
	fs.IntVar(&opt.Hosts, "hosts", opt.Hosts, "sort-node count")
	fs.Parse(args)
	res, err := experiments.RunOnePass(opt)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())
	return nil
}

func runOpenLoop(args []string) error {
	fs := flag.NewFlagSet("openloop", flag.ExitOnError)
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
	fs.Parse(args)
	opt.Timeout = sim.Duration(*timeoutMs * float64(sim.Millisecond))
	if *record != "" {
		store, err := recorder.OpenStore(*record)
		if err != nil {
			return err
		}
		opt.Record = store
		defer func() {
			if err := store.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "asulab: record store:", err)
			}
		}()
	}
	res, err := experiments.RunOpenLoop(opt)
	if err != nil {
		return err
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

// runTrace records a structured trace of one small DSM-Sort run and writes
// it to a file: Chrome trace-event JSON (open in Perfetto or
// chrome://tracing) or, with a .csv output name, a flat time series.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	n := fs.Int("n", 1<<14, "input records")
	asus := fs.Int("asus", 4, "ASU count")
	seed := fs.Int64("seed", 42, "workload seed")
	out := fs.String("o", "dsmsort-trace.json", "output file (.json or .csv)")
	fs.Parse(args)

	params := cluster.DefaultParams()
	params.Hosts, params.ASUs = 1, *asus
	cl := cluster.New(params)
	sink := trace.New()
	cl.AttachTrace(sink)

	in := dsmsort.MakeInput(cl, *n, records.Uniform{}, *seed, 64)
	cfg := dsmsort.Config{Alpha: 8, Beta: 64, Gamma2: 8, PacketRecords: 64,
		Placement: dsmsort.Active, Seed: *seed}
	res, err := dsmsort.Sort(cl, cfg, in)
	if err != nil {
		return err
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if strings.HasSuffix(*out, ".csv") {
		err = sink.WriteCSV(f)
	} else {
		err = sink.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("sorted %d records in %.4fs virtual; %d events on %d tracks -> %s\n",
		*n, res.Elapsed.Seconds(), sink.Events(), sink.Tracks(), *out)
	return nil
}

func runAll() error {
	steps := []struct {
		name string
		fn   func([]string) error
	}{
		{"fig9", runFig9},
		{"fig10", runFig10},
		{"cratio", runCRatio},
		{"gamma", runGamma},
		{"routes", runRoutes},
		{"rtree", runRTree},
		{"terraflow", runTerra},
		{"iso", runIso},
		{"hybrid", runHybrid},
		{"packet", runPacket},
		{"filter", runFilter},
		{"adapt", runAdapt},
		{"onepass", runOnePass},
		{"openloop", runOpenLoop},
	}
	for _, s := range steps {
		fmt.Printf("== %s ==\n", s.name)
		if err := s.fn(nil); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}
