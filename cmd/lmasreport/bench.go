package main

import (
	"flag"
	"fmt"
	"time"

	"lmas/internal/experiments"
	"lmas/internal/prof"
	"lmas/internal/recorder"
	"lmas/internal/telemetry"
)

func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	quick := fs.Bool("quick", false, "small inputs for CI (seconds instead of minutes)")
	out := fs.String("o", "", "output file (default BENCH_<date>.json)")
	seed := fs.Int64("seed", 42, "workload seed shared by every cell")
	jobs := fs.Int("j", 0,
		"max concurrent bench cells (0 = one per CPU); output is identical for every value")
	stamp := fs.Bool("stamp", true,
		"stamp the trajectory with wall-clock time; disable for byte-reproducible baselines")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	record := fs.String("record", "", "record every cell into this run store directory")
	experiment := fs.String("experiment", "bench", "experiment name for recorded runs")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("bench: unexpected argument %q", fs.Arg(0))
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProf()

	var store *recorder.Store
	if *record != "" {
		if store, err = recorder.OpenStore(*record); err != nil {
			return err
		}
	}
	opt := experiments.BenchOptions{
		Quick: *quick, Seed: *seed, Jobs: *jobs,
		Record:     store,
		Experiment: *experiment,
		Progress: func(spec experiments.SortRunSpec) {
			fmt.Printf("bench: %-28s n=%d hosts=%d asus=%d policy=%s dist=%s\n",
				spec.Name, spec.N, spec.Hosts, spec.ASUs, spec.Policy, spec.Dist)
		},
	}
	tr, err := experiments.RunBenchWith(opt)
	if err != nil {
		return err
	}
	tr.Quick = *quick
	if *stamp {
		tr.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	}
	if err := telemetry.WriteJSON(path, tr); err != nil {
		return err
	}
	fmt.Printf("bench: %d run(s) -> %s\n", len(tr.Runs), path)
	if store != nil {
		if err := store.Err(); err != nil {
			return fmt.Errorf("bench: run store: %w", err)
		}
		fmt.Printf("bench: %d run(s) recorded in %s (experiment %q)\n",
			len(tr.Runs), *record, *experiment)
	}
	return nil
}
