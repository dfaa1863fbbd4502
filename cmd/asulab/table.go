package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"strings"

	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/experiments"
	"lmas/internal/recorder"
	"lmas/internal/rtree"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
)

// experiment is one asulab command. Adding a table experiment is a row type
// and its row function in internal/experiments plus one entry here, whose
// bind binds the flags into the row, lays out the row axis and says how one
// measured row prints.
type experiment struct {
	name    string
	aliases []string
	summary string // one line, shown by usage
	// bind registers the experiment's flags on fs and returns the runner to
	// call once fs has parsed the command line.
	bind func(fs *flag.FlagSet) runner
}

// runner prints one command's output to w, measuring up to jobs rows or runs
// at once (< 1: one per CPU), and returns a table experiment's measured rows.
type runner func(w io.Writer, jobs int) (rows any, err error)

// table lists the commands in usage order, which is also `all`'s run order.
var table = []experiment{
	{name: "fig9", summary: "DSM-Sort speedup vs #ASUs per alpha (paper Figure 9)", bind: bindFig9},
	{name: "fig10", summary: "host utilization under skew, static vs load-managed (Figure 10)", bind: bindFig10},
	{name: "cratio", summary: "speedup sensitivity to the host/ASU power ratio c (TAB-C)", bind: bindCRatio},
	{name: "gamma", summary: "merge split between ASUs and hosts (TAB-GAMMA)", bind: bindGamma},
	{name: "routes", summary: "routing-policy ablation under skew (TAB-ROUTE)", bind: bindRoutes},
	{name: "rtree", summary: "partitioned vs striped distributed R-trees (TAB-RTREE)", bind: bindRTree},
	{name: "terraflow", summary: "TerraFlow watershed phase breakdown (TAB-TERRA)", bind: bindTerra},
	{name: "iso", aliases: []string{"isolation"}, summary: "performance isolation of foreground storage requests (TAB-ISO)", bind: bindIso},
	{name: "hybrid", summary: "functor migration between ASUs and hosts (TAB-HYBRID)", bind: bindHybrid},
	{name: "packet", summary: "interconnect packet-size sweep (TAB-PACKET)", bind: bindPacket},
	{name: "filter", summary: "selection-scan filter pushdown vs selectivity (TAB-FILTER)", bind: bindFilter},
	{name: "adapt", summary: "mid-run routing-policy adaptation under skew (TAB-ADAPT)", bind: bindAdapt},
	{name: "onepass", summary: "one-pass cluster sort vs DSM-Sort across the memory wall (TAB-ONEPASS)", bind: bindOnePass},
	{name: "openloop", summary: "open-loop churn: Poisson job stream over short-lived procs (TAB-CHURN)", bind: bindOpenLoop},
}

func bindFig9(fs *flag.FlagSet) runner {
	s := experiments.NewSpec(1<<18, 0, 0, 32)
	fs.IntVar(&s.N, "n", s.N, "input records")
	fs.Int64Var(&s.Sort.Seed, "seed", s.Sort.Seed, "workload seed")
	fs.Float64Var(&s.Params.C, "c", s.Params.C, "host/ASU power ratio")
	alphas := []int{1, 4, 16, 64, 256}
	return func(w io.Writer, jobs int) (any, error) {
		return experiments.Grid[experiments.Fig9Row]{
			Title: func([]experiments.Fig9Row) string {
				return "Figure 9: DSM-Sort run-formation speedup vs. conventional storage"
			},
			Headers: append(columns("ASUs", "a=%d", alphas), "adaptive"),
			Rows: vary(experiments.Fig9Row{Spec: s, Alphas: alphas}, []int{2, 4, 8, 16, 32, 64},
				func(r *experiments.Fig9Row, d int) { r.Params.ASUs = d }),
			Measure: experiments.Fig9,
			Cells: func(r experiments.Fig9Row) []any {
				adaptive := fmt.Sprintf("%.3f (a=%d)", r.Speedups[r.Adaptive], r.Alphas[r.Adaptive])
				return append(cells(r.Params.ASUs, r.Speedups), adaptive)
			},
		}.Run(w, jobs)
	}
}

func bindFig10(fs *flag.FlagSet) runner {
	opt := experiments.DefaultFig10Options()
	fs.IntVar(&opt.N, "n", opt.N, "input records")
	fs.Int64Var(&opt.Seed, "seed", opt.Seed, "workload seed")
	fs.BoolVar(&opt.Critpath, "critpath", opt.Critpath, "attach the critical-path profiler to both runs")
	report := fs.String("report", "", "write the load-managed run's RunReport here (and the static run's next to it as <name>.static.json)")
	record := fs.String("record", "", "record both runs into this run store directory")
	fs.StringVar(&opt.Experiment, "experiment", "fig10", "experiment name for recorded runs")
	return func(w io.Writer, jobs int) (any, error) {
		var store *recorder.Store
		if *record != "" {
			var err error
			if store, err = recorder.OpenStore(*record); err != nil {
				return nil, err
			}
			opt.Record = store
		}
		opt.Jobs = jobs
		res, err := experiments.RunFig10(opt)
		if err != nil {
			return nil, err
		}
		if store != nil {
			if err := store.Err(); err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "recorded both runs -> %s (experiment %q)\n", *record, opt.Experiment)
		}
		fmt.Fprintln(w, res.Summary())
		for _, run := range []experiments.Fig10Run{res.Static, res.Managed} {
			if cp := run.Report.Critpath; cp != nil {
				fmt.Fprintf(w, "critpath [%s]: bottleneck %s (%.1f%% of per-instance congestion), predicted %s — agreement: %s\n",
					run.Policy, cp.Verdict.Observed, cp.Verdict.ObservedShare*100,
					cp.Verdict.Predicted, cp.Verdict.Agree)
			}
		}
		fmt.Fprintln(w, res.Table())
		if *report != "" {
			if err := telemetry.WriteJSON(*report, res.Managed.Report); err != nil {
				return nil, err
			}
			staticPath := strings.TrimSuffix(*report, ".json") + ".static.json"
			if err := telemetry.WriteJSON(staticPath, res.Static.Report); err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "reports: %s (load-managed), %s (static baseline) — compare with lmasreport diff\n",
				*report, staticPath)
		}
		return nil, nil
	}
}

func bindCRatio(fs *flag.FlagSet) runner {
	s := experiments.NewSpec(1<<17, 0, 64, 32)
	fs.IntVar(&s.N, "n", s.N, "input records")
	fs.IntVar(&s.Sort.Alpha, "alpha", s.Sort.Alpha, "distribute order")
	cs := []float64{4, 8}
	return func(w io.Writer, jobs int) (any, error) {
		return experiments.Grid[experiments.CRatioRow]{
			Title: func([]experiments.CRatioRow) string {
				return fmt.Sprintf("TAB-C: power-ratio sensitivity (alpha=%d)", s.Sort.Alpha)
			},
			Headers: columns("ASUs", "speedup(c=%g)", cs),
			Rows: vary(experiments.CRatioRow{Spec: s, Cs: cs}, []int{2, 4, 8, 16, 32},
				func(r *experiments.CRatioRow, d int) { r.Params.ASUs = d }),
			Measure: experiments.CRatio,
			Cells:   func(r experiments.CRatioRow) []any { return cells(r.Params.ASUs, r.Speedups) },
		}.Run(w, jobs)
	}
}

func bindGamma(fs *flag.FlagSet) runner {
	s := experiments.NewSpec(1<<16, 8, 8, 64)
	fs.IntVar(&s.N, "n", s.N, "input records")
	return func(w io.Writer, jobs int) (any, error) {
		return experiments.Grid[experiments.GammaRow]{
			Title:   func([]experiments.GammaRow) string { return "TAB-GAMMA: merge split between ASUs and hosts" },
			Headers: []string{"gamma2", "merge(s)", "asu-levels", "hostMops", "asuMops"},
			Rows: vary(experiments.GammaRow{Spec: s}, []int{2, 4, 8, 16, 32},
				func(r *experiments.GammaRow, g2 int) { r.Sort.Gamma2 = g2 }),
			Measure: experiments.Gamma,
			Cells: func(r experiments.GammaRow) []any {
				m := r.Merge
				return []any{r.Sort.Gamma2, m.Elapsed.Seconds(), m.ASUMergeLevels, m.HostOps / 1e6, m.ASUOps / 1e6}
			},
		}.Run(w, jobs)
	}
}

func bindRoutes(fs *flag.FlagSet) runner {
	f10 := experiments.DefaultFig10Options()
	s := f10.Spec()
	fs.IntVar(&s.N, "n", s.N, "input records")
	return func(w io.Writer, jobs int) (any, error) {
		return experiments.Grid[experiments.RoutingRow]{
			Title:   func([]experiments.RoutingRow) string { return "TAB-ROUTE: routing policies under skew" },
			Headers: []string{"policy", "elapsed(s)", "imbalance"},
			Rows: vary(experiments.RoutingRow{Spec: s, SkewMean: f10.SkewMean}, []string{"static", "round-robin", "sr", "load-aware"},
				func(r *experiments.RoutingRow, policy string) { r.Policy = policy }),
			Measure: experiments.Routing,
			Cells:   func(r experiments.RoutingRow) []any { return []any{r.Policy, r.Elapsed.Seconds(), r.Imbalance} },
		}.Run(w, jobs)
	}
}

func bindRTree(fs *flag.FlagSet) runner {
	row := experiments.RTreeRow{Params: cluster.DefaultParams(), Replicas: 2, Entries: 1 << 14, Seed: 42}
	fs.IntVar(&row.Entries, "entries", row.Entries, "indexed rectangles")
	fs.IntVar(&row.Params.ASUs, "asus", row.Params.ASUs, "ASU count")
	return func(w io.Writer, jobs int) (any, error) {
		return experiments.Grid[experiments.RTreeRow]{
			Title: func([]experiments.RTreeRow) string {
				return fmt.Sprintf("TAB-RTREE: distributed R-tree organizations, %d entries, %d ASUs", row.Entries, row.Params.ASUs)
			},
			Headers: []string{"organization", "wide-scan latency(ms)", "uniform qps", "hot-spot qps", "p50(ms)", "p99(ms)"},
			Rows: vary(row, []rtree.Mode{rtree.Partition, rtree.Stripe, rtree.Replicated},
				func(r *experiments.RTreeRow, m rtree.Mode) { r.Mode = m }),
			Measure: experiments.RTree,
			Cells: func(r experiments.RTreeRow) []any {
				org := r.Mode.String()
				if r.Mode == rtree.Replicated {
					org = fmt.Sprintf("replicated(x%d)", r.Replicas)
				}
				return []any{org, r.WideLatency.Seconds() * 1e3, r.QPS, r.HotQPS, r.P50.Seconds() * 1e3, r.P99.Seconds() * 1e3}
			},
		}.Run(w, jobs)
	}
}

func bindTerra(fs *flag.FlagSet) runner {
	row := experiments.TerraRow{Params: cluster.DefaultParams(), W: 256, H: 256, Seed: 42}
	fs.IntVar(&row.W, "w", row.W, "grid width")
	fs.IntVar(&row.H, "h", row.H, "grid height")
	fs.IntVar(&row.Params.ASUs, "asus", row.Params.ASUs, "ASU count")
	return func(w io.Writer, jobs int) (any, error) {
		return experiments.Grid[experiments.TerraRow]{
			Title: func([]experiments.TerraRow) string {
				return fmt.Sprintf("TAB-TERRA: watershed phases, %dx%d grid, %d ASUs", row.W, row.H, row.Params.ASUs)
			},
			Headers: []string{"placement", "restructure(s)", "sort(s)", "watershed(s)", "flow(s)", "total(s)"},
			Rows: vary(row, []dsmsort.Placement{dsmsort.Conventional, dsmsort.Active},
				func(r *experiments.TerraRow, p dsmsort.Placement) { r.Placement = p }),
			Measure: experiments.Terra,
			Cells: func(r experiments.TerraRow) []any {
				total := r.Restructure + r.Sort + r.Watershed + r.FlowAccum
				return []any{r.Placement.String(), r.Restructure.Seconds(), r.Sort.Seconds(),
					r.Watershed.Seconds(), r.FlowAccum.Seconds(), total.Seconds()}
			},
		}.Run(w, jobs)
	}
}

func bindIso(fs *flag.FlagSet) runner {
	// Large packets make unisolated functor holds long enough to hurt.
	s := experiments.NewSpec(1<<17, 4, 16, 1024)
	fs.IntVar(&s.N, "n", s.N, "input records")
	return func(w io.Writer, jobs int) (any, error) {
		return experiments.Grid[experiments.IsolationRow]{
			Title: func(rows []experiments.IsolationRow) string {
				return fmt.Sprintf("TAB-ISO: foreground request latency vs functor isolation (idle baseline %.3fms)",
					rows[0].Baseline.Seconds()*1e3)
			},
			Headers: []string{"quantum", "sort(s)", "p50(ms)", "p99(ms)", "max(ms)", "requests"},
			Rows: vary(experiments.IsolationRow{Spec: s}, []sim.Duration{0, 500 * sim.Microsecond, 100 * sim.Microsecond},
				func(r *experiments.IsolationRow, q sim.Duration) { r.Params.IsolationQuantum = q }),
			Measure: experiments.Isolation,
			Cells: func(r experiments.IsolationRow) []any {
				q := "off"
				if r.Params.IsolationQuantum > 0 {
					q = fmt.Sprintf("%.1fms", r.Params.IsolationQuantum.Seconds()*1e3)
				}
				return []any{q, r.SortSecs, r.P50.Seconds() * 1e3, r.P99.Seconds() * 1e3, r.Max.Seconds() * 1e3, r.Requests}
			},
		}.Run(w, jobs)
	}
}

func bindHybrid(fs *flag.FlagSet) runner {
	s := experiments.NewSpec(1<<18, 0, 64, 32)
	fs.IntVar(&s.N, "n", s.N, "input records")
	fs.IntVar(&s.Sort.Alpha, "alpha", s.Sort.Alpha, "distribute order")
	return func(w io.Writer, jobs int) (any, error) {
		return experiments.Grid[experiments.HybridRow]{
			Title: func([]experiments.HybridRow) string {
				return fmt.Sprintf("TAB-HYBRID: functor migration (alpha=%d; speedups vs conventional)", s.Sort.Alpha)
			},
			Headers: []string{"ASUs", "active", "hybrid", "hybrid dist. on hosts"},
			// The regimes where each placement wins.
			Rows: vary(experiments.HybridRow{Spec: s}, []int{2, 8, 16, 64},
				func(r *experiments.HybridRow, d int) { r.Params.ASUs = d }),
			Measure: experiments.Hybrid,
			Cells: func(r experiments.HybridRow) []any {
				return []any{r.Params.ASUs, r.Active, r.Hybrid, fmt.Sprintf("%.0f%%", 100*r.HostShare)}
			},
		}.Run(w, jobs)
	}
}

func bindPacket(fs *flag.FlagSet) runner {
	s := experiments.NewSpec(1<<18, 16, 16, 0)
	fs.IntVar(&s.N, "n", s.N, "input records")
	return func(w io.Writer, jobs int) (any, error) {
		return experiments.Grid[experiments.PacketRow]{
			Title: func([]experiments.PacketRow) string {
				return "TAB-PACKET: interconnect packet-size sweep (active placement)"
			},
			Headers: []string{"packet(records)", "pass1(s)", "net(MB)", "header overhead"},
			// From tiny (overhead-bound) to huge (bursty) packets.
			Rows: vary(experiments.PacketRow{Spec: s}, []int{4, 16, 64, 256, 1024},
				func(r *experiments.PacketRow, pr int) { r.Sort.PacketRecords = pr }),
			Measure: experiments.Packet,
			Cells: func(r experiments.PacketRow) []any {
				return []any{r.Sort.PacketRecords, r.Pass1Secs, float64(r.NetBytes) / 1e6, fmt.Sprintf("%.1f%%", 100*r.OverheadFrac)}
			},
		}.Run(w, jobs)
	}
}

func bindFilter(fs *flag.FlagSet) runner {
	s := experiments.NewSpec(1<<18, 16, 0, 64)
	// A deliberately bandwidth-constrained interconnect (unlike the default
	// SAN, where processors saturate first): filtering at the ASUs matters
	// most when shipping everything would saturate the network, the regime
	// Section 2 cites.
	s.Params.NetBandwidth = 60e6
	fs.IntVar(&s.N, "n", s.N, "input records")
	fs.IntVar(&s.Params.ASUs, "asus", s.Params.ASUs, "ASU count")
	return func(w io.Writer, jobs int) (any, error) {
		return experiments.Grid[experiments.FilterRow]{
			Title:   func([]experiments.FilterRow) string { return "TAB-FILTER: selection scan, filter on ASUs vs on host" },
			Headers: []string{"selectivity", "active(s)", "conv(s)", "speedup", "active net(MB)", "conv net(MB)"},
			// From needle-in-haystack to keep-everything.
			Rows: vary(experiments.FilterRow{Spec: s}, []float64{0.01, 0.1, 0.5, 1.0},
				func(r *experiments.FilterRow, sel float64) { r.Selectivity = sel }),
			Measure: experiments.Filter,
			Cells: func(r experiments.FilterRow) []any {
				return []any{r.Selectivity, r.ActiveSecs, r.ConvSecs, r.ConvSecs / r.ActiveSecs, r.ActiveNetMB, r.ConvNetMB}
			},
		}.Run(w, jobs)
	}
}

func bindAdapt(fs *flag.FlagSet) runner {
	f10 := experiments.DefaultFig10Options()
	s := f10.Spec()
	fs.IntVar(&s.N, "n", s.N, "input records")
	return func(w io.Writer, jobs int) (any, error) {
		rows, err := experiments.Grid[experiments.AdaptRow]{
			Title:   func([]experiments.AdaptRow) string { return "TAB-ADAPT: mid-run policy adaptation under skew" },
			Headers: []string{"strategy", "elapsed(s)", "imbalance", "switched at(s)"},
			Rows: vary(experiments.AdaptRow{Spec: s, SkewMean: f10.SkewMean, Threshold: 0.25}, []string{"static", "adaptive", "sr"},
				func(r *experiments.AdaptRow, strategy string) { r.Strategy = strategy }),
			Measure: experiments.Adapt,
			Cells: func(r experiments.AdaptRow) []any {
				sw := "-"
				if r.SwitchedAt > 0 {
					sw = fmt.Sprintf("%.2f", r.SwitchedAt.Seconds())
				}
				return []any{r.Strategy, r.Elapsed.Seconds(), r.Imbalance, sw}
			},
		}.Run(w, jobs)
		for _, r := range rows {
			for _, d := range r.Decisions {
				fmt.Fprintf(w, "decision [%s] t=%.3fs %s: %s (%s)\n",
					r.Strategy, (sim.Duration(d.T)).Seconds(), d.Source, d.Action, d.Detail)
			}
		}
		return rows, err
	}
}

func bindOnePass(fs *flag.FlagSet) runner {
	s := experiments.NewSpec(0, 8, 16, 64)
	// Sort-node memory small enough that the sweep crosses the wall.
	s.Params.Hosts, s.Params.HostMemRecords, s.Sort.Gamma2 = 2, 1<<13, 16
	fs.IntVar(&s.Params.Hosts, "hosts", s.Params.Hosts, "sort-node count")
	return func(w io.Writer, jobs int) (any, error) {
		return experiments.Grid[experiments.OnePassRow]{
			Title: func([]experiments.OnePassRow) string {
				return fmt.Sprintf("TAB-ONEPASS: one-pass cluster sort vs DSM-Sort (sort-node memory %d records x %d hosts)",
					s.Params.HostMemRecords, s.Params.Hosts)
			},
			Headers: []string{"records", "one-pass(s)", "dsm-sort(s)"},
			Rows: vary(experiments.OnePassRow{Spec: s}, []int{1 << 12, 1 << 13, 1 << 15, 1 << 17},
				func(r *experiments.OnePassRow, n int) { r.N = n }),
			Measure: experiments.OnePass,
			Cells: func(r experiments.OnePassRow) []any {
				op := "exceeds memory"
				if r.OnePassSecs >= 0 {
					op = fmt.Sprintf("%.3f", r.OnePassSecs)
				}
				return []any{r.N, op, r.DSMSecs}
			},
		}.Run(w, jobs)
	}
}

func bindOpenLoop(fs *flag.FlagSet) runner {
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
	return func(w io.Writer, _ int) (any, error) {
		// Convert only what fits: a float-to-int overflow would wrap to a
		// negative Duration and be misreported as a non-positive timeout.
		ns := *timeoutMs * float64(sim.Millisecond)
		if !(math.Abs(ns) < math.MaxInt64) {
			return nil, fmt.Errorf("openloop: -timeout must be finite and within ±%.4g ms, have %v",
				math.MaxInt64/float64(sim.Millisecond), *timeoutMs)
		}
		opt.Timeout = sim.Duration(ns)
		var store *recorder.Store
		if *record != "" {
			var err error
			if store, err = recorder.OpenStore(*record); err != nil {
				return nil, err
			}
			opt.Record = store
		}
		res, err := experiments.RunOpenLoop(opt)
		if err != nil {
			return nil, err
		}
		if store != nil {
			if err := store.Err(); err != nil {
				return nil, err
			}
		}
		fmt.Fprintln(w, res.Table())
		if *report != "" {
			if err := telemetry.WriteJSON(*report, res.Report); err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "report: %s\n", *report)
		}
		return nil, nil
	}
}

// vary is one copy of row per axis value, which set applies.
func vary[R, V any](row R, axis []V, set func(*R, V)) []R {
	rows := make([]R, len(axis))
	for i, v := range axis {
		rows[i] = row
		set(&rows[i], v)
	}
	return rows
}

// columns is the first header followed by one per series value.
func columns[V any](first, format string, series []V) []string {
	headers := []string{first}
	for _, v := range series {
		headers = append(headers, fmt.Sprintf(format, v))
	}
	return headers
}

// cells is a pivoted row's table cells: its axis value, then one per series.
func cells(axis int, series []float64) []any {
	row := []any{axis}
	for _, v := range series {
		row = append(row, v)
	}
	return row
}
