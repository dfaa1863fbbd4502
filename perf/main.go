// Command perf is the repository's host-time benchmark: four workloads, the
// end-to-end metrics of an untraced run and the per-layer metrics of a traced
// one, as listed in /BENCHMARK.json. It measures what the emulator costs to
// run (host time) and pins what the emulated cluster would take (virtual
// time) as an exact-repeat check. See README.md.
//
//	go run ./perf -workload sort_uniform              # end-to-end metrics
//	go run ./perf -workload sort_uniform -trace 1     # per-layer metrics
//	go run ./perf compare A.jsonl B.jsonl             # noise-aware comparison
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir holds everything a run writes: the run records and the recorder
// temp stores. It is relative to the working directory, so the benchmark
// stays inside its checkout; only tests point it elsewhere.
var outDir = ".perf_out"

const recordSchema = "lmas/perf/v1"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 42, "workload seed; goes only into SortRunSpec.Seed / OpenLoopOptions.Seed")
	seconds := fs.Float64("seconds", 20, "length of the timed window (or the traced run's loop budget)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and the Markdown tables instead of end-to-end metrics")
	out := fs.String("out", filepath.Join(outDir, "runs.jsonl"), "append each run's record (one JSON line) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perf: usage: perf [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out FILE] | perf compare A B")
		return 2
	}
	if err := refuse(); err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	env := gatherEnv(*seed, *seconds)
	window := time.Duration(*seconds * float64(time.Second))
	code := 0
	for _, n := range names {
		rec, err := runOne(n, fullSizes, *seed, window, *trace == 1, env, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
		// The result line is the last thing a workload prints.
		line, err := json.Marshal(rec.result())
		if err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// refuse rejects set-ups whose numbers would not be comparable.
func refuse() error {
	if v := os.Getenv("LMAS_SIM_ENGINE"); v != "" {
		return fmt.Errorf("LMAS_SIM_ENGINE=%q is set; the benchmark measures the default engine only", v)
	}
	if raceEnabled {
		return fmt.Errorf("built with -race; host times would be meaningless")
	}
	return nil
}

// envInfo is the header every output carries.
type envInfo struct {
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
}

func gatherEnv(seed int64, seconds float64) envInfo {
	env := envInfo{
		GitRev:     "unknown",
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		WindowS:    seconds,
	}
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		if rev := strings.TrimSpace(string(b)); rev != "" {
			env.GitRev = rev
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

func (e envInfo) String() string {
	return fmt.Sprintf("git %s, %s, %d CPUs (%s), GOMAXPROCS %d, seed %d, window %g s",
		e.GitRev, e.GoVersion, e.NProc, e.CPUModel, e.GOMAXPROCS, e.Seed, e.WindowS)
}

// metricValue is one metric as the result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is everything one run produced; `compare` reads files of these.
type runRecord struct {
	Schema         string                 `json:"schema"`
	Env            envInfo                `json:"env"`
	Workload       string                 `json:"workload"`
	Traced         bool                   `json:"traced"`
	Correct        bool                   `json:"correct"`
	Attempted      int                    `json:"attempted"`
	Failed         int                    `json:"failed"`
	Failures       []string               `json:"failures,omitempty"`
	SimFingerprint string                 `json:"sim_fingerprint"`
	VirtualNs      int64                  `json:"virtual_ns"`
	Metrics        map[string]metricValue `json:"metrics"`
	// Untraced runs: the per-iteration host times behind host_ms_p50, and
	// the diagnostics that do not repeat well enough to be metrics.
	HostMs      []float64          `json:"host_ms,omitempty"`
	SetupS      []float64          `json:"setup_s,omitempty"`
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	// Traced runs: the spans behind the stage metrics.
	Spans []span `json:"spans,omitempty"`
}

// result is the benchmark contract's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *runRecord) result() result {
	return result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

func (r *runRecord) tally(m *measurement) {
	r.Attempted, r.Failed, r.Failures = m.attempted, m.failed, m.failures
	r.Correct = m.failed == 0 && m.attempted > 0
	r.SimFingerprint, r.VirtualNs = m.fingerprint, m.virtualNs
}

// runOne executes one run of one workload and prints its human-readable
// report; the caller prints the result line.
func runOne(name string, sz sizes, seed int64, window time.Duration, traced bool, env envInfo, stdout io.Writer) (*runRecord, error) {
	rec := &runRecord{Schema: recordSchema, Env: env, Workload: name, Traced: traced,
		Metrics: make(map[string]metricValue)}
	fmt.Fprintf(stdout, "# perf %s (trace %v): %s\n", name, traced, env)

	if traced {
		t, err := tracedRun(name, sz, seed, window)
		if err != nil {
			return nil, err
		}
		rec.tally(&t.check)
		rec.Spans = t.spans
		for _, d := range perLayer {
			rec.Metrics[d.name] = metricValue{Value: t.values[d.name], Unit: d.unit}
		}
		printMetrics(stdout, perLayer, rec.Metrics)
		fmt.Fprint(stdout, t.markdown)
		printTally(stdout, rec)
		return rec, nil
	}

	m, w, err := measure(name, sz, seed, window)
	if err != nil {
		return nil, err
	}
	rec.tally(m)
	rec.SetupS = m.setups
	rec.HostMs = column(m.costs, func(c hostCost) float64 { return c.hostMs })
	iters := float64(len(m.costs))
	var allocB, mallocs, pauseNs float64
	for _, c := range m.costs {
		allocB += float64(c.allocB)
		mallocs += float64(c.mallocs)
		pauseNs += float64(c.gcPauseNs)
	}
	p50 := median(rec.HostMs)
	values := map[string]float64{
		"setup_s":           median(m.setups),
		"host_ms_p50":       p50,
		"work_per_host_s":   float64(w.units) / (p50 / 1e3),
		"cpu_ms_p50":        median(column(m.costs, func(c hostCost) float64 { return c.cpuMs })),
		"alloc_mb_per_iter": allocB / iters / 1e6,
		"mallocs_per_iter":  mallocs / iters,
	}
	for _, d := range endToEnd {
		rec.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	rec.Diagnostics = map[string]float64{
		"host_ms_p90":          quantile(rec.HostMs, 0.9),
		"peak_rss_mb":          peakRSSMB(),
		"gc_pause_ms_per_iter": pauseNs / iters / 1e6,
		"virtual_ms":           float64(m.virtualNs) / 1e6,
	}
	if w.observed {
		rec.Diagnostics["trace_events_per_iter"] = float64(m.traceEvents)
		rec.Diagnostics["recorder_bytes_per_iter"] = float64(m.storeBytes)
	}
	printMetrics(stdout, endToEnd, rec.Metrics)
	fmt.Fprintf(stdout, "  %-34s %d timed iterations, %s per iteration = %d; set-ups %.3f s\n",
		"samples", len(m.costs), w.unit, w.units, m.setups)
	for _, k := range sortedKeys(rec.Diagnostics) {
		fmt.Fprintf(stdout, "  %-34s %14.4f  (diagnostic)\n", k, rec.Diagnostics[k])
	}
	printTally(stdout, rec)
	return rec, nil
}

func printMetrics(w io.Writer, defs []metricDef, values map[string]metricValue) {
	for _, d := range defs {
		bound := ""
		if d.bound > 0 {
			bound = fmt.Sprintf(", bound %g%%", 100*d.bound)
		}
		if d.exact {
			bound = ", exact"
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-10s (%s is better%s)\n", d.name, values[d.name].Value, d.unit, d.better, bound)
	}
}

func printTally(w io.Writer, rec *runRecord) {
	fmt.Fprintf(w, "  %-34s %s\n", "sim_fingerprint", rec.SimFingerprint)
	fmt.Fprintf(w, "  %-34s %d ns\n", "virtual time", rec.VirtualNs)
	fmt.Fprintf(w, "  %-34s correct=%v attempted=%d failed=%d\n", "outputs", rec.Correct, rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// appendRecord adds rec as one JSON line to path, creating it if needed.
func appendRecord(path string, rec *runRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedKeys returns m's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
