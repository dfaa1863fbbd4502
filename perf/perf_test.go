package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinySizes keeps the smoke test to a few seconds: one iteration of every
// workload, traced and untraced.
var tinySizes = sizes{
	uniformN:  1 << 12,
	smallpktN: 1 << 12,
	jobs:      2000,
	warmups:   0,
	setupReps: 1,
	minIters:  1,
	unitScale: 200,
}

// benchmarkFile mirrors /BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs asserts that the file's metric list is exactly the program's.
func checkDefs(t *testing.T, kind string, file []benchmarkMetric, defs []metricDef, bounded bool) {
	t.Helper()
	if len(file) != len(defs) {
		t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(file), len(defs))
	}
	seen := make(map[string]bool)
	for i, d := range defs {
		f := file[i]
		if f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
			t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s",
				kind, i, f.Name, f.Unit, f.Better, d.name, d.unit, d.better)
		}
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("%s: name %q or unit %q outside the contract's alphabet", kind, d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: %s has direction %q", kind, d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("%s: %s listed twice", kind, d.name)
		}
		seen[d.name] = true
		switch {
		case bounded && (f.Bound == nil || *f.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
			t.Errorf("%s: %s needs the same bound in (0, 0.25] on both sides, have %v and %g", kind, d.name, f.Bound, d.bound)
		case !bounded && (f.Bound != nil || d.bound != 0):
			t.Errorf("%s: %s must have no bound", kind, d.name)
		}
	}
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadNames))
	}
	for i, name := range workloadNames {
		w, err := buildWorkload(name, fullSizes, 42)
		if err != nil {
			t.Fatal(err)
		}
		if bf.Workloads[i].Name != name || !nameRE.MatchString(name) {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, bf.Workloads[i].Name, name)
		}
		if bf.Workloads[i].Why != w.why || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why differs from the program's, or is not one line of <= 200 characters", name)
		}
	}
	checkDefs(t, "end_to_end", bf.EndToEnd, endToEnd, true)
	checkDefs(t, "per_layer", bf.PerLayer, perLayer, false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Errorf("the contract needs setup_s in s, lower is better; have %+v", endToEnd[0])
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "perf" {
		t.Errorf("paths = %v, want [perf]", bf.Paths)
	}
	if strings.Join(bf.Command, " ") != "go run ./perf" {
		t.Errorf("command = %v, want go run ./perf", bf.Command)
	}
}

// TestSmoke runs every workload, untraced and traced, at tiny sizes and
// checks that each run is correct and emits exactly the listed metrics.
func TestSmoke(t *testing.T) {
	outDir = t.TempDir()
	env := gatherEnv(42, 0.001)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			rec, err := runOne(name, tinySizes, 42, time.Millisecond, traced, env, io.Discard)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d %v",
					name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
			}
			if rec.SimFingerprint == "" || rec.VirtualNs <= 0 {
				t.Errorf("%s (trace %v): no fingerprint or virtual time", name, traced)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics, want %d", name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rec.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s (trace %v): metric %s missing or in %q, want %q", name, traced, d.name, v.Unit, d.unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", name, d.name, v.Value)
				}
			}
			if traced && rec.Metrics["bufpool.outstanding_after"].Value != 0 {
				t.Errorf("%s: buffers outstanding after the leak-check iteration", name)
			}
			if traced && len(rec.Spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		}
	}
	if left, err := os.ReadDir(outDir); err != nil || len(left) != 0 {
		t.Errorf("recorder temp stores left behind: %v %v", left, err)
	}
}

func TestTooFewIterationsIsRefused(t *testing.T) {
	sz := tinySizes
	sz.minIters = 1000
	if _, _, err := measure("sort_uniform", sz, 42, time.Millisecond); err == nil {
		t.Fatal("a window that cannot fit the minimum iteration count must be refused")
	}
}

func TestEngineOverrideIsRefused(t *testing.T) {
	t.Setenv("LMAS_SIM_ENGINE", "parallel")
	var stderr bytes.Buffer
	if code := run([]string{"-workload", "sort_uniform"}, io.Discard, &stderr); code == 0 {
		t.Fatal("run with LMAS_SIM_ENGINE set must exit non-zero")
	}
	if !strings.Contains(stderr.String(), "LMAS_SIM_ENGINE") {
		t.Errorf("refusal does not name the cause: %q", stderr.String())
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %g %g %g, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func samplesOf(vals ...float64) []sample {
	out := make([]sample, len(vals))
	for i, v := range vals {
		out[i] = sample{seed: int64(i + 1), value: v}
	}
	return out
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "host_ms_p50", better: "lower", bound: 0.10}
	higher := metricDef{name: "work_per_host_s", better: "higher", bound: 0.10}
	exact := metricDef{name: "sim.wheel_hits", better: "lower", exact: true}
	steady := samplesOf(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	noisy := samplesOf(80, 120, 90, 110, 100, 85, 115, 95, 105, 100)
	shift := func(ss []sample, f float64) []sample {
		out := append([]sample(nil), ss...)
		for i := range out {
			out[i].value *= f
		}
		return out
	}
	cases := []struct {
		name string
		d    metricDef
		a, b []sample
		want verdict
	}{
		{"same", lower, steady, steady, vUnchanged},
		{"slower within bound", lower, steady, shift(steady, 1.05), vUnchanged},
		{"slower beyond bound", lower, steady, shift(steady, 1.2), vRegression},
		{"faster beyond bound", lower, steady, shift(steady, 0.8), vImproved},
		{"throughput down", higher, steady, shift(steady, 0.8), vRegression},
		{"throughput up", higher, steady, shift(steady, 1.2), vImproved},
		{"same but noisy", lower, noisy, noisy, vUnresolved},
		{"slower inside the noise", lower, noisy, shift(noisy, 1.2), vUnresolved},
		{"noisy yet every run slower", lower, noisy, shift(noisy, 2), vRegression},
		{"noisy yet every run faster", lower, noisy, shift(noisy, 0.5), vImproved},
		{"exact same", exact, steady, steady, vIdentical},
		{"exact differs by one", exact, steady, append(samplesOf(100, 101, 99), sample{4, 101}), vChanged},
		{"exact without a common seed", exact, steady, []sample{{seed: 99, value: 1}}, vNoPair},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, hostMs float64) string {
		path := dir + "/" + name
		for seed := int64(1); seed <= 3; seed++ {
			rec := &runRecord{Schema: recordSchema, Env: envInfo{Seed: seed}, Workload: "sort_uniform", Correct: true,
				SimFingerprint: "f", VirtualNs: 1, Metrics: map[string]metricValue{}}
			for _, d := range endToEnd {
				rec.Metrics[d.name] = metricValue{Value: 1, Unit: d.unit}
			}
			rec.Metrics["host_ms_p50"] = metricValue{Value: hostMs, Unit: "ms"}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base, same, slow := write("a.jsonl", 100), write("b.jsonl", 100), write("c.jsonl", 150)
	var out bytes.Buffer
	if code := compareMain([]string{base, same}, &out, io.Discard); code != 0 {
		t.Errorf("identical sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{base, slow}, &out, io.Discard); code != 1 || !strings.Contains(out.String(), string(vRegression)) {
		t.Errorf("50%% slower set: exit %d, want 1 and a REGRESSION row\n%s", code, out.String())
	}
}
