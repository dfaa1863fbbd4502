package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// compare: a noise-aware comparison of two sets of run records (the files
// -out appends to), by the bounds in metrics.go. Each workload x metric gets
// its own row; nothing is folded into a combined score.

// verdict is what compare says about one workload x metric pair.
type verdict string

const (
	vUnchanged  verdict = "unchanged"
	vImproved   verdict = "improved"
	vRegression verdict = "REGRESSION"
	// vUnresolved: the run-to-run spread is wider than the bound, so the
	// medians cannot tell a change from noise.
	vUnresolved verdict = "unresolved"
	vIdentical  verdict = "identical"
	vChanged    verdict = "CHANGED"
	vNoPair     verdict = "no common seed"
	vInfo       verdict = "info"
)

func (v verdict) fails() bool { return v == vRegression || v == vChanged }

// sample is one run's value of a metric.
type sample struct {
	seed  int64
	value float64
}

func values(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.value
	}
	return out
}

// worsening is how much worse b's median is than a's, as a share of a's, in
// the metric's own direction (negative = better).
func worsening(d metricDef, medA, medB float64) float64 {
	if medA == 0 {
		return 0
	}
	w := (medB - medA) / medA
	if d.better == "higher" && w != 0 {
		w = -w
	}
	return w
}

// judge compares the baseline runs a with the candidate runs b of one metric.
func judge(d metricDef, a, b []sample) verdict {
	if d.exact {
		return judgeExact(a, b)
	}
	if d.bound <= 0 {
		return vInfo
	}
	va, vb := values(a), values(b)
	q1a, medA, q3a := quartiles(va)
	q1b, medB, q3b := quartiles(vb)
	if medA == 0 {
		return vInfo
	}
	spread := (q3a - q1a) / medA
	if s := (q3b - q1b) / medA; s > spread {
		spread = s
	}
	w := worsening(d, medA, medB)
	noisy := spread > d.bound
	switch {
	case w > d.bound:
		if noisy && !separated(d, vb, va) {
			return vUnresolved
		}
		return vRegression
	case w < -d.bound:
		if noisy && !separated(d, va, vb) {
			return vUnresolved
		}
		return vImproved
	case noisy:
		return vUnresolved
	}
	return vUnchanged
}

// separated reports whether every run in worse reads worse than every run in
// better, in d's direction.
func separated(d metricDef, worse, better []float64) bool {
	if d.better == "higher" {
		return slices.Max(worse) < slices.Min(better)
	}
	return slices.Min(worse) > slices.Max(better)
}

// judgeExact requires a == b for every seed both sides ran.
func judgeExact(a, b []sample) verdict {
	bySeed := func(ss []sample) map[int64]float64 {
		m := make(map[int64]float64, len(ss))
		for _, s := range ss {
			m[s.seed] = s.value
		}
		return m
	}
	return pairedEqual(bySeed(a), bySeed(b))
}

// pairedEqual compares two seed -> value maps on the seeds they share.
func pairedEqual[V comparable](a, b map[int64]V) verdict {
	v := vNoPair
	for seed, va := range a {
		if vb, ok := b[seed]; ok {
			if va != vb {
				return vChanged
			}
			v = vIdentical
		}
	}
	return v
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20) // traced records carry their spans
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Schema != recordSchema {
			return nil, fmt.Errorf("%s:%d: schema %q, want %q", path, line, rec.Schema, recordSchema)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return out, nil
}

// runKey groups records: one table per workload and kind of run.
type runKey struct {
	workload string
	traced   bool
}

// group returns key -> metric -> samples, key -> seed -> the simulated
// statistics every record carries outside its metrics map, and how many runs
// had a failed iteration.
func group(recs []runRecord) (map[runKey]map[string][]sample, map[runKey]map[int64]string, int) {
	metrics := make(map[runKey]map[string][]sample)
	prints := make(map[runKey]map[int64]string)
	failed := 0
	for _, r := range recs {
		k := runKey{r.Workload, r.Traced}
		if metrics[k] == nil {
			metrics[k] = make(map[string][]sample)
			prints[k] = make(map[int64]string)
		}
		for name, v := range r.Metrics {
			metrics[k][name] = append(metrics[k][name], sample{r.Env.Seed, v.Value})
		}
		prints[k][r.Env.Seed] = fmt.Sprintf("%s/%d", r.SimFingerprint, r.VirtualNs)
		if !r.Correct {
			failed++
		}
	}
	return metrics, prints, failed
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "perf: usage: perf compare BASELINE.jsonl CANDIDATE.jsonl")
		return 2
	}
	var sets [2][]runRecord
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 2
		}
		sets[i] = recs
	}
	if compareRecords(sets[0], sets[1], stdout) {
		return 1
	}
	return 0
}

// compareRecords prints one row per workload x metric and reports whether
// anything regressed.
func compareRecords(recsA, recsB []runRecord, w io.Writer) (regressed bool) {
	for i, recs := range [][]runRecord{recsA, recsB} {
		fmt.Fprintf(w, "%c: %d runs; first: %s\n", 'A'+i, len(recs), recs[0].Env)
	}
	metA, printsA, failedA := group(recsA)
	metB, printsB, failedB := group(recsB)
	if failedA+failedB > 0 {
		fmt.Fprintf(w, "runs with failed iterations: A %d, B %d\n", failedA, failedB)
		regressed = failedB > failedA
	}
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, name := range workloadNames {
			k := runKey{name, traced}
			if metA[k] == nil || metB[k] == nil {
				continue
			}
			fmt.Fprintf(w, "\n%s (trace %v)\n", name, traced)
			fmt.Fprintf(w, "  %-34s %-10s %38s %38s %8s  %s\n", "metric", "unit",
				"A median [q1, q3] n", "B median [q1, q3] n", "worse", "verdict")
			for _, d := range defs {
				a, b := metA[k][d.name], metB[k][d.name]
				v := judge(d, a, b)
				q1a, medA, q3a := quartiles(values(a))
				q1b, medB, q3b := quartiles(values(b))
				fmt.Fprintf(w, "  %-34s %-10s %38s %38s %+7.1f%%  %s\n", d.name, d.unit,
					fmt.Sprintf("%.6g [%.6g, %.6g] %d", medA, q1a, q3a, len(a)),
					fmt.Sprintf("%.6g [%.6g, %.6g] %d", medB, q1b, q3b, len(b)),
					100*worsening(d, medA, medB), v)
				regressed = regressed || v.fails()
			}
			v := pairedEqual(printsA[k], printsB[k])
			fmt.Fprintf(w, "  %-34s seed by seed: %s\n", "sim_fingerprint + virtual_ns", v)
			regressed = regressed || v.fails()
		}
	}
	return regressed
}
