package main

import (
	"flag"
	"fmt"
	"os"

	"lmas/internal/plot"
	"lmas/internal/recorder"
	"lmas/internal/telemetry"
)

// runQuery answers questions against a run store:
//
//	lmasreport query STORE list   [-experiment E]
//	lmasreport query STORE show   RUN-ID
//	lmasreport query STORE metric NAME [-experiment E]
//	lmasreport query STORE gate   -base EXP -new EXP [thresholds]
//	lmasreport query STORE import FILE -experiment E
//
// list enumerates runs; show renders one stored run with the same tables as
// `show`; metric pulls one instrument across runs (the "which config
// regressed MergePass p99?" query); gate reruns the bench regression gate
// from store records alone; import loads an existing report/trajectory file
// into the store so committed baselines are queryable.
func runQuery(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("query: want STORE and a subcommand (list|show|metric|gate|import|trace|prune)")
	}
	dir, sub, rest := args[0], args[1], args[2:]
	switch sub {
	case "list":
		return queryList(dir, rest)
	case "show":
		return queryShow(dir, rest)
	case "metric":
		return queryMetric(dir, rest)
	case "gate":
		return queryGate(dir, rest)
	case "import":
		return queryImport(dir, rest)
	case "trace":
		return queryTrace(dir, rest)
	case "prune":
		return queryPrune(dir, rest)
	}
	return fmt.Errorf("query: unknown subcommand %q", sub)
}

func queryList(dir string, args []string) error {
	fs := flag.NewFlagSet("query list", flag.ExitOnError)
	exp := fs.String("experiment", "", "only this experiment")
	if pos := parseMixed(fs, args); len(pos) != 0 {
		return fmt.Errorf("query list: unexpected argument %q", pos[0])
	}
	st, err := openStoreRead(dir)
	if err != nil {
		return err
	}
	runs, err := st.Runs()
	if err = warnSkipped(err); err != nil {
		return err
	}
	t := plot.NewTable(fmt.Sprintf("Run store %s", dir),
		"run", "experiment", "name", "started", "config", "rev", "runtime(s)", "spans", "state")
	shown := 0
	for _, run := range runs {
		h := run.Header
		if *exp != "" && h.Experiment != *exp {
			continue
		}
		runtime, state := "-", "unfinished"
		if rep := run.Report(); rep != nil {
			runtime = fmt.Sprintf("%.4f", rep.RuntimeSec)
			state = "finished"
		} else if run.Finished() {
			state = "failed (no report)"
		}
		t.AddRow(h.RunID, h.Experiment, h.Name, h.StartedAt, h.ConfigHash, h.GitRev,
			runtime, len(run.Spans()), state)
		shown++
	}
	if shown == 0 {
		return fmt.Errorf("query list: no matching runs in %s", dir)
	}
	fmt.Println(t)
	return nil
}

func queryShow(dir string, args []string) error {
	fs := flag.NewFlagSet("query show", flag.ExitOnError)
	pos := parseMixed(fs, args)
	if len(pos) != 1 {
		return fmt.Errorf("query show: want exactly one RUN-ID")
	}
	st, err := openStoreRead(dir)
	if err != nil {
		return err
	}
	runs, err := st.Runs()
	if err = warnSkipped(err); err != nil {
		return err
	}
	for _, run := range runs {
		if run.Header.RunID != pos[0] {
			continue
		}
		h := run.Header
		fmt.Printf("run %s  experiment=%s  config=%s  rev=%s  started=%s\n",
			h.RunID, h.Experiment, h.ConfigHash, h.GitRev, h.StartedAt)
		fmt.Printf("records: %d spans\n\n", len(run.Spans()))
		rep := run.Report()
		if rep == nil {
			return fmt.Errorf("query show: run %s never finished (no report record)", pos[0])
		}
		showReport(rep)
		return nil
	}
	return fmt.Errorf("query show: no run %q in %s", pos[0], dir)
}

func queryMetric(dir string, args []string) error {
	fs := flag.NewFlagSet("query metric", flag.ExitOnError)
	exp := fs.String("experiment", "", "only this experiment")
	pos := parseMixed(fs, args)
	if len(pos) != 1 {
		return fmt.Errorf("query metric: want exactly one instrument name")
	}
	name := pos[0]
	st, err := openStoreRead(dir)
	if err != nil {
		return err
	}
	runs, err := st.Select(*exp)
	if err = warnSkipped(err); err != nil {
		return err
	}
	t := plot.NewTable(fmt.Sprintf("Metric %s", name),
		"experiment", "run", "kind", "value", "p50", "p99")
	shown := 0
	for _, run := range runs {
		rep := run.Report()
		if rep == nil {
			continue
		}
		if kind, v, p50, p99, ok := metricOf(rep, name); ok {
			p50s, p99s := "-", "-"
			if kind == "latency" {
				p50s = fmt.Sprintf("%.6g", p50)
				p99s = fmt.Sprintf("%.6g", p99)
			}
			t.AddRow(run.Header.Experiment, run.Header.Name, kind,
				fmt.Sprintf("%.6g", v), p50s, p99s)
			shown++
		}
	}
	if shown == 0 {
		return fmt.Errorf("query metric: no stored run has an instrument %q", name)
	}
	fmt.Println(t)
	return nil
}

// metricOf resolves name against a report's instruments: counters report
// their value, gauges their final sample, latency histograms their count plus
// p50/p99 in seconds.
func metricOf(rep *telemetry.RunReport, name string) (kind string, v, p50, p99 float64, ok bool) {
	if name == "runtime_sec" {
		return "runtime", rep.RuntimeSec, 0, 0, true
	}
	for _, c := range rep.Counters {
		if c.Name == name {
			return "counter", float64(c.Value), 0, 0, true
		}
	}
	for _, g := range rep.Gauges {
		if g.Name == name && len(g.Samples) > 0 {
			return "gauge", g.Samples[len(g.Samples)-1].V, 0, 0, true
		}
	}
	for _, l := range rep.Latencies {
		if l.Name == name {
			return "latency", float64(l.Count),
				float64(l.P50Ns) / 1e9, float64(l.P99Ns) / 1e9, true
		}
	}
	return "", 0, 0, 0, false
}

// queryTrace composes the stored trace spans of one or more runs into a
// single Chrome trace-event JSON file, loadable in Perfetto — the cross-run
// view a per-run trace file cannot give. With explicit RUN-IDs only those
// runs contribute (in the order given); otherwise every run in the store (or
// the selected experiment) that recorded spans does.
func queryTrace(dir string, args []string) error {
	fs := flag.NewFlagSet("query trace", flag.ExitOnError)
	exp := fs.String("experiment", "", "only this experiment (ignored with explicit RUN-IDs)")
	out := fs.String("o", "", "output file (default stdout)")
	ids := parseMixed(fs, args)
	st, err := openStoreRead(dir)
	if err != nil {
		return err
	}
	runs, err := st.Runs()
	if err = warnSkipped(err); err != nil {
		return err
	}
	var chosen []*recorder.RunRecord
	if len(ids) > 0 {
		byID := make(map[string]*recorder.RunRecord, len(runs))
		for _, run := range runs {
			byID[run.Header.RunID] = run
		}
		for _, id := range ids {
			run, ok := byID[id]
			if !ok {
				return fmt.Errorf("query trace: no run %q in %s", id, dir)
			}
			chosen = append(chosen, run)
		}
	} else {
		for _, run := range runs {
			if *exp != "" && run.Header.Experiment != *exp {
				continue
			}
			if len(run.Spans()) > 0 {
				chosen = append(chosen, run)
			}
		}
	}
	spans := 0
	for _, run := range chosen {
		spans += len(run.Spans())
	}
	if spans == 0 {
		return fmt.Errorf("query trace: no stored spans (record runs with tracing attached, e.g. dsmsort -trace -record)")
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := recorder.ComposeTrace(w, chosen); err != nil {
		return err
	}
	if *out != "" {
		fmt.Printf("query trace: %d span(s) from %d run(s) -> %s\n", spans, len(chosen), *out)
	}
	return nil
}

// queryPrune applies the store's retention policy: keep the newest -keep
// runs (by header start time, run ID tiebreak) and delete the rest. -dry-run
// lists the victims without touching any file.
func queryPrune(dir string, args []string) error {
	fs := flag.NewFlagSet("query prune", flag.ExitOnError)
	keep := fs.Int("keep", -1, "number of newest runs to keep (required)")
	dry := fs.Bool("dry-run", false, "list what would be pruned without deleting")
	if pos := parseMixed(fs, args); len(pos) != 0 {
		return fmt.Errorf("query prune: unexpected argument %q", pos[0])
	}
	if *keep < 0 {
		return fmt.Errorf("query prune: -keep N is required")
	}
	st, err := openStoreRead(dir)
	if err != nil {
		return err
	}
	victims, err := st.Prune(*keep, *dry)
	if err = warnSkipped(err); err != nil {
		return err
	}
	verb := "pruned"
	if *dry {
		verb = "would prune"
	}
	for _, run := range victims {
		h := run.Header
		fmt.Printf("%s %s (experiment=%s started=%s)\n", verb, h.RunID, h.Experiment, h.StartedAt)
	}
	fmt.Printf("query prune: %s %d run(s), kept newest %d\n", verb, len(victims), *keep)
	return nil
}

// queryGate is the store-backed `diff`: BASE and NEW are experiments named
// by flag, and the verdict is computed by the same code as the file-based CI
// gate.
func queryGate(dir string, args []string) error {
	fs := flag.NewFlagSet("query gate", flag.ExitOnError)
	base := fs.String("base", "", "baseline experiment name")
	next := fs.String("new", "", "candidate experiment name")
	cmp := bindComparison(fs)
	if pos := parseMixed(fs, args); len(pos) != 0 {
		return fmt.Errorf("query gate: unexpected argument %q", pos[0])
	}
	if *base == "" || *next == "" {
		return fmt.Errorf("query gate: -base and -new experiment names are required")
	}
	st, err := openStoreRead(dir)
	if err != nil {
		return err
	}
	return cmp.run("query gate", st, *base, *next)
}

func queryImport(dir string, args []string) error {
	fs := flag.NewFlagSet("query import", flag.ExitOnError)
	exp := fs.String("experiment", "", "experiment name for the imported runs (required)")
	pos := parseMixed(fs, args)
	if len(pos) != 1 {
		return fmt.Errorf("query import: want exactly one report/trajectory file")
	}
	if *exp == "" {
		return fmt.Errorf("query import: -experiment is required")
	}
	tr, err := telemetry.ReadFile(pos[0])
	if err != nil {
		return err
	}
	st, err := recorder.OpenStore(dir)
	if err != nil {
		return err
	}
	for _, rep := range tr.Runs {
		rec := st.NewRun()
		rec.Begin(&recorder.Header{
			Experiment: *exp,
			Name:       rep.Name,
			ConfigHash: recorder.ConfigHash(rep.Config, rep.Workload, rep.Seed),
			Seed:       rep.Seed,
			Config:     rep.Config,
			Workload:   rep.Workload,
		})
		rec.Finish(rep)
	}
	if err := st.Err(); err != nil {
		return err
	}
	fmt.Printf("query import: %d run(s) from %s -> %s as experiment %q\n",
		len(tr.Runs), pos[0], dir, *exp)
	return nil
}
