package main

import (
	"fmt"
	"strings"
	"time"

	"lmas/internal/bufpool"
	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/experiments"
	"lmas/internal/route"
	"lmas/internal/telemetry"
)

// span is one timed call into a layer's public API, recorded by the harness
// from outside. Spans of one iteration share Iteration; Parent is the span
// that caused this one (-1 for the iteration itself).
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Iteration int    `json:"iteration"`
	Name      string `json:"name"`
	StartNs   int64  `json:"start_ns"` // since process start
	EndNs     int64  `json:"end_ns"`
}

// spans keeps the traced run's spans in memory until the run ends. A nil
// *spans records nothing, which is how the same code runs untraced.
type spans struct {
	list      []span
	iteration int
}

func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	if parent < 0 {
		s.iteration++
	}
	s.list = append(s.list, span{
		ID: len(s.list), Parent: parent, Iteration: s.iteration, Name: name,
		StartNs: time.Since(procStart).Nanoseconds(),
	})
	return len(s.list) - 1
}

func (s *spans) end(id int) {
	if s != nil {
		s.list[id].EndNs = time.Since(procStart).Nanoseconds()
	}
}

// stageMs returns, per span name, each span's duration in ms, and for every
// iteration span the share of it that no child span covers (its self time).
func (s *spans) stageMs() (byName map[string][]float64, selfFrac []float64) {
	byName = make(map[string][]float64)
	covered := make(map[int]int64)
	for _, sp := range s.list {
		d := sp.EndNs - sp.StartNs
		if sp.Parent >= 0 {
			byName[sp.Name] = append(byName[sp.Name], float64(d)/1e6)
			covered[sp.Parent] += d
		}
	}
	for _, sp := range s.list {
		if d := sp.EndNs - sp.StartNs; sp.Parent < 0 && d > 0 {
			selfFrac = append(selfFrac, float64(d-covered[sp.ID])/float64(d))
		}
	}
	return byName, selfFrac
}

// bareSort runs spec on a cluster with nothing attached, through the public
// per-pass entry points, recording a span around each call when sp is
// non-nil. split runs RunFormation and MergePass separately (no output
// validation); otherwise it calls Sort, which validates. Everything the
// harness owns is freed before returning, so the buffer pool must balance.
func bareSort(spec *experiments.SortRunSpec, sp *spans, split bool) (*cluster.Cluster, error) {
	iter := sp.begin("iteration", -1)
	defer sp.end(iter)

	id := sp.begin("cluster.new", iter)
	params := cluster.DefaultParams()
	params.Hosts, params.ASUs, params.C = spec.Hosts, spec.ASUs, spec.C
	if err := params.Validate(); err != nil {
		return nil, err
	}
	cl := cluster.New(params)
	sp.end(id)

	id = sp.begin("dsmsort.make_input", iter)
	in, err := dsmsort.MakeInputNamed(cl, spec.N, spec.Dist, spec.Seed, spec.PacketRecords)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	defer in.Free()

	pol, err := route.ByName(spec.Policy, spec.Alpha, spec.Seed)
	if err != nil {
		return nil, err
	}
	cfg := dsmsort.Config{
		Alpha:         spec.Alpha,
		Beta:          spec.Beta,
		Gamma2:        spec.Gamma2,
		PacketRecords: spec.PacketRecords,
		Placement:     spec.Placement,
		SortPolicy:    pol,
		Seed:          spec.Seed,
	}
	if !split {
		id = sp.begin("dsmsort.sort", iter)
		res, err := dsmsort.Sort(cl, cfg, in)
		sp.end(id)
		if err != nil {
			return nil, err
		}
		res.Output.Free()
		return cl, nil
	}
	id = sp.begin("dsmsort.run_formation", iter)
	rs, _, err := dsmsort.RunFormation(cl, cfg, in)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	id = sp.begin("dsmsort.merge_pass", iter)
	out, _, err := dsmsort.MergePass(cl, cfg, rs)
	sp.end(id)
	rs.Free()
	if err != nil {
		return nil, err
	}
	out.Free()
	return cl, nil
}

// traced is the outcome of a traced run: every per-layer metric by name (and
// the intermediate counts the estimates multiply, which are not emitted), the
// spans behind the stage metrics, and the same correctness tally as a timed
// run.
type traced struct {
	values   map[string]float64
	spans    []span
	check    measurement
	markdown string
}

// observerConfigs are the rows of the observer cost table, one observer at a
// time and then all of them.
var observerConfigs = []struct {
	label string
	obs   observers
}{
	{"bare", observers{}},
	{"+trace", observers{trace: true}},
	{"+critpath", observers{critpath: true}},
	{"+recorder", observers{record: true}},
	{"all", allObservers},
}

// tracedRun produces the per-layer metrics of one workload. budget is split
// evenly over the three looped phases (end-to-end iterations, stage rounds,
// observer rounds); the unit-cost drivers have fixed op counts.
func tracedRun(name string, sz sizes, seed int64, budget time.Duration) (*traced, error) {
	w, err := buildWorkload(name, sz, seed)
	if err != nil {
		return nil, err
	}
	r, err := newRunner(w, w.observed)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := setUp(r, sz); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	t := &traced{values: make(map[string]float64)}
	phase := budget / 3
	minRounds := min(sz.minIters, 3)

	// Phase 1: end-to-end iterations, for the per-iteration counts and the
	// harness diagnostics.
	var costs []hostCost
	var last iterResult
	var gets, reuses uint64
	for start := time.Now(); len(costs) < minRounds || time.Since(start) < phase; {
		g0, r0, _, _ := bufpool.Default.Stats()
		var res iterResult
		cost, err := timeCall(func() (err error) {
			res, err = r.iterate()
			return err
		})
		g1, r1, _, _ := bufpool.Default.Stats()
		if _, sweepErr := r.sweepStore(); err == nil {
			err = sweepErr
		}
		t.check.checkIteration(res, err)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		costs = append(costs, cost)
		last, gets, reuses = res, g1-g0, r1-r0
	}
	t.reportCounts(last.report)
	t.values["bufpool.gets"] = float64(gets)
	if gets > 0 {
		t.values["bufpool.reuse_ratio"] = float64(reuses) / float64(gets)
	}
	t.values["harness.host_ms_p90"] = quantile(column(costs, func(c hostCost) float64 { return c.hostMs }), 0.9)
	t.values["harness.gc_pause_ms_per_iter"] = median(column(costs, func(c hostCost) float64 { return float64(c.gcPauseNs) / 1e6 }))
	t.values["virtual_ms"] = float64(t.check.virtualNs) / 1e6

	// Phase 2: stage spans around the public calls, traced and untraced.
	sp := &spans{}
	var untraced []float64
	for round, start := 0, time.Now(); round < minRounds || time.Since(start) < phase; round++ {
		ms, err := t.stageRound(r, sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		untraced = append(untraced, ms)
	}
	t.spans = sp.list
	t.stageMetrics(sp, untraced)

	// Phase 3: what each layer's public operations cost, at this workload's
	// packet size (openloop_churn moves no packets; it gets sort_uniform's).
	pkt := 64
	if w.sort != nil {
		pkt = w.sort.PacketRecords
	}
	units, err := unitCosts(sz, pkt)
	if err != nil {
		return nil, err
	}
	for k, v := range units {
		t.values[k] = v
	}

	// Phase 4: observer cost on the sort_uniform cell.
	if err := t.observerCost(sz, seed, phase, minRounds); err != nil {
		return nil, err
	}

	t.check.leakCheck(w)
	t.values["bufpool.outstanding_after"] = float64(t.check.outstanding)
	t.values["harness.sim_fingerprint_changes"] = float64(t.check.fingerprintChanges)
	t.values["harness.peak_rss_mb"] = peakRSSMB()
	t.estimates(w)
	t.markdown += t.budgetTable(w)
	return t, nil
}

// counterSum adds up the report counters whose name has the given prefix and
// suffix.
func counterSum(rep *telemetry.RunReport, prefix, suffix string) float64 {
	var total int64
	for _, c := range rep.Counters {
		if strings.HasPrefix(c.Name, prefix) && strings.HasSuffix(c.Name, suffix) {
			total += c.Value
		}
	}
	return float64(total)
}

// reportCounts takes the per-iteration counts the RunReport carries.
func (t *traced) reportCounts(rep *telemetry.RunReport) {
	t.values["sim.wheel_hits"] = counterSum(rep, "sim.scheduler.wheel_hits", "")
	t.values["sim.heap_spills"] = counterSum(rep, "sim.scheduler.heap_spills", "")
	t.values["sim.proc_reuses"] = counterSum(rep, "sim.scheduler.proc_reuses", "")
	t.values["functor.packets"] = counterSum(rep, "functor.", ".packets")
	t.values["functor.records"] = counterSum(rep, "functor.", ".records")
	t.values["dsmsort.runs"] = counterSum(rep, "dsmsort.pass1.runs", "")
	t.values["dsmsort.merge_offload_ops"] = counterSum(rep, "dsmsort.merge.offload_ops", "")
	t.values["route.picks"] = counterSum(rep, "route.", ".picks")
}

// clusterCounts takes the counts only a cluster's public Stats methods give.
// RunOpenLoop keeps its cluster to itself, so openloop_churn reports 0 here.
func (t *traced) clusterCounts(cl *cluster.Cluster) {
	var holds, reads, writes, diskBytes, msgs, netBytes int64
	for _, n := range cl.Nodes() {
		total, _ := n.CPU.Holds()
		holds += total
		sent, _, sentBytes, _ := n.NIC.Stats()
		msgs += sent
		netBytes += sentBytes
		if n.Disk != nil {
			r, w, rb, wb := n.Disk.Stats()
			reads, writes, diskBytes = reads+r, writes+w, diskBytes+rb+wb
		}
	}
	t.values["cluster.cpu_holds"] = float64(holds)
	t.values["disk.reads"] = float64(reads)
	t.values["disk.writes"] = float64(writes)
	t.values["disk.ops"] = float64(reads + writes)
	t.values["disk.bytes"] = float64(diskBytes)
	t.values["netsim.msgs"] = float64(msgs)
	t.values["netsim.bytes"] = float64(netBytes)
}

// stageRound runs the workload once per shape with spans on, then once
// untraced, and returns the untraced iteration's host ms.
func (t *traced) stageRound(r *runner, sp *spans) (untracedMs float64, err error) {
	if r.w.open != nil {
		iter := sp.begin("iteration", -1)
		id := sp.begin("experiments.run_open_loop", iter)
		_, err := r.iterate()
		sp.end(id)
		sp.end(iter)
		if err != nil {
			return 0, err
		}
		cost, err := timeCall(func() error {
			_, err := r.iterate()
			return err
		})
		return cost.hostMs, err
	}
	cl, err := bareSort(r.w.sort, sp, false)
	if err != nil {
		return 0, err
	}
	t.clusterCounts(cl)
	if _, err := bareSort(r.w.sort, sp, true); err != nil {
		return 0, err
	}
	cost, err := timeCall(func() error {
		_, err := bareSort(r.w.sort, nil, false)
		return err
	})
	return cost.hostMs, err
}

// stageSpans are the span names bareSort and stageRound record under an
// iteration; each one's median is the metric <name>_ms.
var stageSpans = []string{"cluster.new", "dsmsort.make_input", "dsmsort.sort",
	"dsmsort.run_formation", "dsmsort.merge_pass", "experiments.run_open_loop"}

// stageMetrics turns the spans into the kind-1 metrics.
func (t *traced) stageMetrics(sp *spans, untraced []float64) {
	byName, selfFrac := sp.stageMs()
	for _, name := range stageSpans {
		t.values[name+"_ms"] = median(byName[name])
	}
	// Computed, not measured: Sort = RunFormation + MergePass + validation.
	if v := t.values["dsmsort.sort_ms"] - t.values["dsmsort.run_formation_ms"] - t.values["dsmsort.merge_pass_ms"]; v > 0 {
		t.values["dsmsort.validate_ms"] = v
	}
	t.values["harness.unattributed_frac"] = median(selfFrac)

	// Tracing overhead: iterations of the whole shape with spans on against
	// the same shape with a nil span recorder.
	var tracedMs []float64
	for _, s := range sp.list {
		if s.Name == "dsmsort.sort" || s.Name == "experiments.run_open_loop" {
			root := sp.list[s.Parent]
			tracedMs = append(tracedMs, float64(root.EndNs-root.StartNs)/1e6)
		}
	}
	if base := median(untraced); base > 0 {
		t.values["harness.trace_overhead_frac"] = (median(tracedMs) - base) / base
	}
}

// observerCost times the sort_uniform cell bare and with each observer on,
// interleaved round by round, and renders the observer cost table.
func (t *traced) observerCost(sz sizes, seed int64, budget time.Duration, minRounds int) error {
	w, err := buildWorkload("sort_uniform", sz, seed)
	if err != nil {
		return err
	}
	r, err := newRunner(w, true)
	if err != nil {
		return err
	}
	defer r.close()
	ms := make([][]float64, len(observerConfigs))
	for round, start := 0, time.Now(); round < minRounds || time.Since(start) < budget; round++ {
		for i, cfg := range observerConfigs {
			var res iterResult
			cost, err := timeCall(func() (err error) {
				res, err = r.iterateSort(cfg.obs)
				return err
			})
			bytes, sweepErr := r.sweepStore()
			if err == nil {
				err = sweepErr
			}
			if err != nil {
				return fmt.Errorf("observer cost (%s): %w", cfg.label, err)
			}
			ms[i] = append(ms[i], cost.hostMs)
			if cfg.obs == allObservers {
				t.values["trace.events_per_iter"] = float64(res.traceEvents)
				t.values["recorder.bytes_per_iter"] = float64(bytes)
			}
		}
	}
	bare := median(ms[0])
	var b strings.Builder
	fmt.Fprintf(&b, "\n#### Observer cost (sort_uniform cell, n=%d, seed %d, %d rounds)\n\n", w.units, seed, len(ms[0]))
	b.WriteString("| observers | host ms / iteration | extra ms | x bare |\n|---|---:|---:|---:|\n")
	for i, cfg := range observerConfigs {
		m := median(ms[i])
		fmt.Fprintf(&b, "| %s | %.1f | %+.1f | %.2f |\n", cfg.label, m, m-bare, m/bare)
	}
	t.markdown += b.String()
	t.values["observe.trace_ms"] = median(ms[1]) - bare
	t.values["observe.critpath_ms"] = median(ms[2]) - bare
	t.values["observe.recorder_ms"] = median(ms[3]) - bare
	t.values["observe.all_ratio"] = median(ms[4]) / bare
	return nil
}

// estimate is one layer's computed budget: unit costs times counts.
type estimate struct {
	layer string
	terms []estTerm
}

type estTerm struct {
	count, unitNs string  // metric names
	times         float64 // how often the unit op runs per counted item
}

// estimateTable says which unit cost multiplies which count. The products are
// budgets, not measurements: they overlap (cluster.compute_ns includes the
// sim.Resource.Use beneath it) and leave out what has no counter yet.
func estimateTable() []estimate {
	return []estimate{
		{"sim", []estTerm{
			{"sim.wheel_hits", "sim.far_timer_ns", 1},
			{"sim.proc_reuses", "sim.spawn_exit_ns", 1},
			{"functor.packets", "sim.queue_handoff_ns", 1},
		}},
		{"cluster", []estTerm{{"cluster.cpu_holds", "cluster.compute_ns", 1}}},
		{"disk", []estTerm{
			{"disk.reads", "disk.read_ns", 1},
			{"disk.writes", "disk.write_ns", 1},
		}},
		{"netsim", []estTerm{{"netsim.msgs", "netsim.stream_ns", 1}}},
		// Each record is generated once, checksummed on the way in and on
		// the way out, block-sorted once and cloned into its input packet.
		{"records", []estTerm{
			{"workload.records", "records.generate_ns_per_rec", 1},
			{"workload.records", "records.checksum_ns_per_rec", 2},
			{"workload.records", "records.sort_ns_per_rec", 1},
			{"workload.records", "records.clone_ns_per_rec", 1},
		}},
		{"bufpool", []estTerm{{"bufpool.gets", "bufpool.get_put_ns", 1}}},
		{"container", []estTerm{{"functor.packets", "container.set_add_scan_ns_per_pkt", 1}}},
		{"route", []estTerm{{"route.picks", "route.pick_ns", 1}}},
		// Begin+End is two events; every event is also one recorder span.
		{"trace", []estTerm{{"trace.events_per_iter", "trace.span_ns", 0.5}}},
		{"recorder", []estTerm{{"trace.events_per_iter", "recorder.span_write_ns", 1}}},
	}
}

// estimates fills every <layer>.est_ms. The trace and recorder layers do work
// only when the workload has them on.
func (t *traced) estimates(w *workload) {
	if w.sort != nil {
		t.values["workload.records"] = float64(w.units)
	}
	for _, e := range estimateTable() {
		if (e.layer == "trace" || e.layer == "recorder") && !w.observed {
			continue
		}
		var ns float64
		for _, term := range e.terms {
			ns += t.values[term.count] * t.values[term.unitNs] * term.times
		}
		t.values[e.layer+".est_ms"] = ns / 1e6
	}
}

// budgetTable renders the per-layer budget: measured stage spans first, then
// the computed unit-cost x count estimates.
func (t *traced) budgetTable(w *workload) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n#### Per-layer budget (%s, bare cluster, %d spans)\n\n", w.name, len(t.spans))
	b.WriteString("| stage span | median host ms | kind |\n|---|---:|---|\n")
	for _, name := range stageSpans {
		fmt.Fprintf(&b, "| %s | %.2f | measured |\n", name, t.values[name+"_ms"])
	}
	fmt.Fprintf(&b, "| dsmsort.validate | %.2f | computed (sort - run_formation - merge_pass) |\n", t.values["dsmsort.validate_ms"])
	fmt.Fprintf(&b, "| unattributed share of an iteration | %.1f%% | measured |\n", 100*t.values["harness.unattributed_frac"])
	fmt.Fprintf(&b, "| span recording overhead | %+.1f%% | measured |\n", 100*t.values["harness.trace_overhead_frac"])

	b.WriteString("\n| layer | est. host ms / iteration | computed as |\n|---|---:|---|\n")
	for _, e := range estimateTable() {
		var parts []string
		for _, term := range e.terms {
			part := fmt.Sprintf("%.0f x %.1f ns", t.values[term.count], t.values[term.unitNs])
			if term.times != 1 {
				part += fmt.Sprintf(" x %g", term.times)
			}
			parts = append(parts, part)
		}
		fmt.Fprintf(&b, "| %s | %.2f | %s |\n", e.layer, t.values[e.layer+".est_ms"], strings.Join(parts, " + "))
	}
	return b.String()
}
