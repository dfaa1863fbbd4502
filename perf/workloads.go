package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"lmas/internal/dsmsort"
	"lmas/internal/experiments"
	"lmas/internal/recorder"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
	"lmas/internal/trace"
)

// sizes are the problem sizes and loop counts of a run. The benchmark always
// uses fullSizes; the smoke test shrinks them so `go test` stays fast.
type sizes struct {
	uniformN  int // records in sort_uniform / sort_observed
	smallpktN int // records in sort_smallpkt
	jobs      int // arrivals in openloop_churn
	warmups   int // untimed iterations per set-up
	setupReps int // set-ups per run; setup_s is their median
	minIters  int // fewest timed iterations a run may report
	unitScale int // divides the op counts of the unit-cost drivers
}

var fullSizes = sizes{
	uniformN:  1 << 17,
	smallpktN: 1 << 16,
	jobs:      100000,
	warmups:   3,
	setupReps: 3,
	minIters:  10,
	unitScale: 1,
}

// workload is one set of inputs the benchmark runs. Exactly one of sort and
// open is set.
type workload struct {
	name string
	why  string
	// unit names the work counted by work_per_host_s; units is how much of
	// it one iteration does.
	unit  string
	units int
	sort  *experiments.SortRunSpec
	open  *experiments.OpenLoopOptions
	// observed turns every observer on for each iteration (sort only).
	observed bool
}

// workloadNames is the binding order; BENCHMARK.json lists the same names.
var workloadNames = []string{"sort_uniform", "sort_smallpkt", "openloop_churn", "sort_observed"}

// uniformSpec is the full-size active-static-uniform cell of `lmasreport
// bench`, spelled out so the benchmark does not move when that matrix does.
func uniformSpec(name string, sz sizes, seed int64) *experiments.SortRunSpec {
	return &experiments.SortRunSpec{
		Name:          name,
		N:             sz.uniformN,
		Hosts:         2,
		ASUs:          8,
		C:             8,
		Alpha:         16,
		Beta:          1 << 10,
		Gamma2:        16,
		PacketRecords: 64,
		Placement:     dsmsort.Active,
		Policy:        "static",
		Dist:          "uniform",
		Seed:          seed,
	}
}

// buildWorkload constructs the named workload's spec. The seed goes only into
// SortRunSpec.Seed / OpenLoopOptions.Seed.
func buildWorkload(name string, sz sizes, seed int64) (*workload, error) {
	switch name {
	case "sort_uniform":
		return &workload{
			name:  name,
			why:   "record-bytes-bound: records/bufpool/dsmsort merge do most of the host work, sim under a tenth",
			unit:  "records",
			units: sz.uniformN,
			sort:  uniformSpec(name, sz, seed),
		}, nil
	case "sort_smallpkt":
		spec := uniformSpec(name, sz, seed)
		spec.N = sz.smallpktN
		spec.ASUs = 16
		spec.Dist = "halves"
		spec.Policy = "sr"
		spec.PacketRecords = 4
		return &workload{
			name:  name,
			why:   "16x more packets per record: sim park/resume, Resource.Use and queue handoff dominate, records is small",
			unit:  "records",
			units: sz.smallpktN,
			sort:  spec,
		}, nil
	case "openloop_churn":
		opt := experiments.DefaultOpenLoopOptions()
		opt.Jobs = sz.jobs
		opt.Timeout = 2 * sim.Second
		opt.Deadlines = 20
		opt.Seed = seed
		return &workload{
			name:  name,
			why:   "sim kernel only (timer wheel, heap, spawn/exit, GetN); records is 0%, so every data-layer change bypasses it",
			unit:  "jobs",
			units: sz.jobs,
			open:  &opt,
		}, nil
	case "sort_observed":
		return &workload{
			name:     name,
			why:      "sort_uniform with trace, critpath and recorder on: its ratio to sort_uniform is the observer cost",
			unit:     "records",
			units:    sz.uniformN,
			sort:     uniformSpec(name, sz, seed),
			observed: true,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// iterResult is what one emulated run hands back to the harness.
type iterResult struct {
	report    *telemetry.RunReport
	virtualNs int64
	// traceEvents is filled by iterations with the trace observer on.
	traceEvents int
}

// runner executes iterations of one workload. It owns the recorder temp
// store of an observed workload; close removes it.
type runner struct {
	w        *workload
	storeDir string
	store    *recorder.Store
}

// newRunner prepares w for iteration; withStore opens the recorder store an
// observed iteration writes to.
func newRunner(w *workload, withStore bool) (*runner, error) {
	r := &runner{w: w}
	if withStore {
		if err := r.openStore(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// openStore creates a fresh run-store directory under outDir, so the
// benchmark writes only inside its checkout.
func (r *runner) openStore() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "store-")
	if err != nil {
		return err
	}
	st, err := recorder.OpenStore(dir)
	if err != nil {
		_ = os.RemoveAll(dir) // best effort: the open error is the one to report
		return err
	}
	r.storeDir, r.store = dir, st
	return nil
}

func (r *runner) close() error {
	if r.storeDir == "" {
		return nil
	}
	return os.RemoveAll(r.storeDir)
}

// observers selects which observers an iteration of a sort spec turns on.
type observers struct{ trace, critpath, record bool }

var allObservers = observers{trace: true, critpath: true, record: true}

// iterate performs one complete emulated run: build cluster, generate input,
// run, validate, build report. It is the timed unit of every workload.
func (r *runner) iterate() (iterResult, error) {
	if r.w.open != nil {
		res, err := experiments.RunOpenLoop(*r.w.open)
		if err != nil {
			return iterResult{}, err
		}
		if res.Completed != r.w.open.Jobs {
			return iterResult{}, fmt.Errorf("completed %d of %d jobs", res.Completed, r.w.open.Jobs)
		}
		return iterResult{report: res.Report, virtualNs: int64(res.Elapsed)}, nil
	}
	if r.w.observed {
		return r.iterateSort(allObservers)
	}
	return r.iterateSort(observers{})
}

// iterateSort runs the workload's sort spec with the given observers attached
// through the spec's declarative fields. Output validation (sorted, complete,
// permutation checksum) happens inside dsmsort.Sort.
func (r *runner) iterateSort(obs observers) (iterResult, error) {
	spec := *r.w.sort
	spec.Critpath = obs.critpath
	var sink *trace.Sink
	if obs.trace {
		sink = trace.New()
		spec.Trace = sink
	}
	if obs.record {
		spec.Record = r.store
	}
	rep, _, err := experiments.RunSortReport(spec)
	if err != nil {
		return iterResult{}, err
	}
	out := iterResult{report: rep, virtualNs: rep.RuntimeNs}
	if sink != nil {
		out.traceEvents = sink.Events()
	}
	if obs.record {
		if err := r.store.Err(); err != nil {
			return iterResult{}, fmt.Errorf("recorder: %w", err)
		}
	}
	return out, nil
}

// sweepStore reports the bytes the last iteration recorded and deletes its
// segment. Call it outside the timed span.
func (r *runner) sweepStore() (int64, error) {
	if r.storeDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(r.storeDir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		path := filepath.Join(r.storeDir, e.Name())
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
		if err := os.Remove(path); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// fingerprint is the sha256 of the report's canonical JSON: encoding/json
// sorts map keys and formats floats canonically, so equal simulated
// statistics give equal bytes.
func fingerprint(rep *telemetry.RunReport) (string, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
