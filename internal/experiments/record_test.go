package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lmas/internal/dsmsort"
	"lmas/internal/recorder"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
	"lmas/internal/trace"
)

// recordSpec is a small cell used by the recording tests: big enough to
// produce several sampling intervals, small enough to keep the suite fast.
func recordSpec(name string) SortRunSpec {
	return SortRunSpec{
		Name:          name,
		N:             1 << 12,
		Hosts:         1,
		ASUs:          2,
		C:             8,
		Alpha:         4,
		Beta:          256,
		Gamma2:        4,
		PacketRecords: 64,
		Placement:     dsmsort.Active,
		Policy:        "static",
		Dist:          "uniform",
		Seed:          42,
	}
}

// TestRecordingNeutrality pins the acceptance criterion: attaching a
// recorder (store and live dashboard together) must leave the RunReport
// byte-identical to an unrecorded run. The recorder is a pure observer of
// the virtual-time trajectory.
func TestRecordingNeutrality(t *testing.T) {
	plain, _, err := RunSortReport(recordSpec("cell"))
	if err != nil {
		t.Fatal(err)
	}

	st, err := recorder.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	live := recorder.NewLive()
	spec := recordSpec("cell")
	spec.Record = recorder.Multi{st, live}
	spec.Experiment = "neutrality"
	spec.SampleEvery = 2 * sim.Millisecond
	recorded, _, err := RunSortReport(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}

	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(recorded)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("recording changed the report bytes:\nplain:    %s\nrecorded: %s", a, b)
	}

	// The observer did observe: the stored segment holds periodic samples,
	// load-manager-style decision events (if any fired), and the finished
	// report, reloadable byte-for-byte.
	runs, err := st.Select("neutrality")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("store has %d runs, want 1", len(runs))
	}
	if n := len(runs[0].Samples()); n < 2 {
		t.Fatalf("stored run has %d samples, want >= 2 (sampler never ticked?)", n)
	}
	stored := runs[0].Report()
	if stored == nil {
		t.Fatal("stored run has no finish report")
	}
	// The samples carry the dashboard's latency strip: every per-stage
	// distribution the report ends up with shows in the last sample, with
	// observations and a p50 below its p99 bound.
	samples := runs[0].Samples()
	strip := map[string]recorder.LatencySnapshot{}
	for _, l := range samples[len(samples)-1].Latencies {
		strip[l.Name] = l
	}
	for _, stage := range []string{"distribute", "blocksort", "collect"} {
		for _, what := range []string{"queue_wait", "service", "latency"} {
			name := "functor." + stage + "." + what
			if l, ok := strip[name]; !ok || l.Count == 0 || l.P50Ns > l.P99Ns {
				t.Errorf("last sample's latency strip: %s = %+v (present %v)", name, l, ok)
			}
		}
	}
	if len(strip) != len(stored.Latencies) {
		t.Errorf("latency strip has %d entries, the report %d", len(strip), len(stored.Latencies))
	}
	c, err := json.Marshal(stored)
	if err != nil {
		t.Fatal(err)
	}
	if string(c) != string(a) {
		t.Fatal("report reloaded from the store differs from the original")
	}
}

// TestPeriodicGaugeReconciliation pins the gauge sampler's contract: the
// per-interval node.<n>.cpu.busy_sec samples are cumulative and monotone,
// and the final sample reconciles with the report's own utilization series —
// the integral of util over the windows equals the last cumulative busy
// reading. Queue depth never exceeds its high-water mark.
func TestPeriodicGaugeReconciliation(t *testing.T) {
	spec := recordSpec("cell")
	spec.GaugeInterval = 2 * sim.Millisecond
	rep, _, err := RunSortReport(spec)
	if err != nil {
		t.Fatal(err)
	}

	gauges := map[string]telemetry.GaugeReport{}
	for _, g := range rep.Gauges {
		gauges[g.Name] = g
	}

	for _, node := range rep.Nodes {
		g, ok := gauges["node."+node.Name+".cpu.busy_sec"]
		if !ok {
			t.Fatalf("no periodic busy gauge for node %s", node.Name)
		}
		if len(g.Samples) < 2 {
			t.Fatalf("node %s: %d busy samples, want >= 2", node.Name, len(g.Samples))
		}
		for i := 1; i < len(g.Samples); i++ {
			if g.Samples[i].V < g.Samples[i-1].V {
				t.Fatalf("node %s: cumulative busy_sec not monotone at sample %d: %v -> %v",
					node.Name, i, g.Samples[i-1].V, g.Samples[i].V)
			}
		}
		if node.CPU == nil {
			continue
		}
		// Integral of the utilization series: util[i] * observed window width.
		var busy float64
		for i, u := range node.CPU.Util {
			winStart := float64(i) * node.CPU.WindowSec
			busy += u * (node.CPU.TS[i] - winStart)
		}
		final := g.Samples[len(g.Samples)-1].V
		if math.Abs(busy-final) > 1e-3 {
			t.Fatalf("node %s: util-series integral %.6f vs final busy_sec sample %.6f",
				node.Name, busy, final)
		}
	}

	sawQueue := false
	for name, g := range gauges {
		if !strings.HasPrefix(name, "queue.") || !strings.HasSuffix(name, ".depth") {
			continue
		}
		sawQueue = true
		// The high-water series holds the periodic samples plus possibly one
		// final value from the end-of-run telemetry flush; the periodic
		// prefix aligns index-for-index with the depth series.
		high := gauges[strings.TrimSuffix(name, ".depth")+".high_water"]
		if len(high.Samples) < len(g.Samples) {
			t.Fatalf("%s: %d depth vs %d high-water samples", name, len(g.Samples), len(high.Samples))
		}
		for i := range g.Samples {
			if g.Samples[i].V > high.Samples[i].V {
				t.Fatalf("%s sample %d: depth %v exceeds high water %v",
					name, i, g.Samples[i].V, high.Samples[i].V)
			}
		}
		for i := 1; i < len(high.Samples); i++ {
			if high.Samples[i].V < high.Samples[i-1].V {
				t.Fatalf("%s: high water not monotone at sample %d", name, i)
			}
		}
	}
	if !sawQueue {
		t.Fatal("no queue.*.depth gauges in the report — queue probes never registered")
	}

	// Off by default: the same spec without GaugeInterval has none of these.
	plain, _, err := RunSortReport(recordSpec("cell"))
	if err != nil {
		t.Fatal(err)
	}
	// (queue.*.high_water / .wait_sec exist in the baseline too — the final
	// telemetry flush writes them — so only the sampler-specific series count.)
	for _, g := range plain.Gauges {
		if strings.HasPrefix(g.Name, "node.") || strings.HasSuffix(g.Name, ".depth") {
			t.Fatalf("gauge %q present without GaugeInterval", g.Name)
		}
	}
}

// TestProgressSamplerNeutrality pins what `dsmsort -progress` rests on: the
// gauge sampler is a pure observer — the run ends at the same virtual instant
// and every node's cpu/disk/nic utilization series is the bare run's — and it
// reports application progress for both passes: each stage's records-in
// gauge is monotone and its last sample is the whole input.
func TestProgressSamplerNeutrality(t *testing.T) {
	bare, _, err := RunSortReport(recordSpec("cell"))
	if err != nil {
		t.Fatal(err)
	}
	spec := recordSpec("cell")
	spec.GaugeInterval = 2 * sim.Millisecond
	rep, _, err := RunSortReport(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RuntimeNs != bare.RuntimeNs {
		t.Errorf("RuntimeNs %d with the sampler on, %d bare", rep.RuntimeNs, bare.RuntimeNs)
	}
	got, _ := json.Marshal(rep.Nodes)
	want, _ := json.Marshal(bare.Nodes)
	if !bytes.Equal(got, want) {
		t.Errorf("node utilization series moved with the sampler on:\n got %s\nwant %s", got, want)
	}
	for _, node := range rep.Nodes {
		if node.CPU == nil || node.NIC == nil || (node.Kind == "asu" && node.Disk == nil) {
			t.Errorf("node %s lost a utilization series: cpu=%v disk=%v nic=%v",
				node.Name, node.CPU != nil, node.Disk != nil, node.NIC != nil)
		}
	}

	stages := map[string]bool{}
	for _, g := range rep.Gauges {
		name, ok := strings.CutPrefix(g.Name, "stage.")
		if !ok {
			continue
		}
		stages[strings.TrimSuffix(name, ".records_in")] = true
		for i := 1; i < len(g.Samples); i++ {
			if g.Samples[i].V < g.Samples[i-1].V {
				t.Errorf("%s regressed at sample %d: %v -> %v", g.Name, i, g.Samples[i-1].V, g.Samples[i].V)
			}
		}
		if last := g.Samples[len(g.Samples)-1].V; last != float64(spec.N) {
			t.Errorf("%s ends at %v, want the whole input %d", g.Name, last, spec.N)
		}
	}
	for _, st := range []string{"distribute", "blocksort", "collect", "merge.asu", "merge.host", "merge.collect"} {
		if !stages[st] {
			t.Errorf("no stage.%s.records_in gauge: the progress view does not cover that stage", st)
		}
	}
}

// TestStoreDeterminism records the same cell twice into fresh stores and
// compares the segments below the header line byte for byte. Run IDs and
// wall-clock fields live only in the header, so everything under it is a
// pure function of the virtual-time run.
func TestStoreDeterminism(t *testing.T) {
	segment := func() []byte {
		t.Helper()
		dir := t.TempDir()
		st, err := recorder.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		spec := recordSpec("cell")
		spec.Record = st
		spec.Experiment = "det"
		spec.SampleEvery = 2 * sim.Millisecond
		if _, _, err := RunSortReport(spec); err != nil {
			t.Fatal(err)
		}
		_, body := segmentBody(t, st)
		return body
	}
	a, b := segment(), segment()
	if !bytes.Equal(a, b) {
		t.Fatalf("segments differ below the header (len %d vs %d)", len(a), len(b))
	}
}

// TestConcurrentRecording exercises shared store + live sinks from parallel
// sweep cells — the configuration `lmasreport bench -record -serve` runs —
// so `go test -race` covers the cross-goroutine recorder paths.
func TestConcurrentRecording(t *testing.T) {
	st, err := recorder.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	live := recorder.NewLive()
	sink := recorder.Multi{st, live}

	const cells = 3
	var wg sync.WaitGroup
	errs := make([]error, cells)
	for i := 0; i < cells; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := recordSpec(fmt.Sprintf("cell-%d", i))
			spec.Record = sink
			spec.Experiment = "race"
			spec.SampleEvery = 2 * sim.Millisecond
			_, _, errs[i] = RunSortReport(spec)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	runs, err := st.Select("race")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != cells {
		t.Fatalf("store has %d runs, want %d", len(runs), cells)
	}
	for _, run := range runs {
		if run.Report() == nil {
			t.Fatalf("run %s has no finish report", run.Header.RunID)
		}
	}
}

// TestTraceRecordingNeutrality extends the neutrality property to the trace
// streamer: a run with tracing attached AND streamed into a store produces a
// report byte-identical to the bare run, the stored segment holds the sink's
// spans, and re-recording yields byte-identical span streams (below the
// volatile header).
func TestTraceRecordingNeutrality(t *testing.T) {
	plain, _, err := RunSortReport(recordSpec("cell"))
	if err != nil {
		t.Fatal(err)
	}

	traced := func() (*telemetry.RunReport, []recorder.Span) {
		t.Helper()
		st, err := recorder.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		spec := recordSpec("cell")
		spec.Trace = trace.New()
		spec.Record = st
		spec.Experiment = "trace-neutrality"
		spec.SampleEvery = 2 * sim.Millisecond
		rep, _, err := RunSortReport(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		runs, err := st.Runs()
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 1 {
			t.Fatalf("%d stored runs, want 1", len(runs))
		}
		if got, want := len(runs[0].Spans()), spec.Trace.Events(); got != want || got == 0 {
			t.Fatalf("stored %d spans, sink recorded %d events", got, want)
		}
		return rep, runs[0].Spans()
	}

	rep1, spans1 := traced()
	rep2, spans2 := traced()

	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep1)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("trace recording changed the report bytes:\nplain:  %s\ntraced: %s", a, b)
	}
	c, _ := json.Marshal(rep2)
	if string(b) != string(c) {
		t.Fatal("two traced runs disagree on the report")
	}

	s1, err := json.Marshal(spans1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := json.Marshal(spans2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatalf("span streams differ across recordings (%d vs %d bytes)", len(s1), len(s2))
	}
}

// settledGoroutines polls runtime.NumGoroutine until it is at most want or a
// second has passed: a goroutine that has signalled its exit is still counted
// for an instant afterwards.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestEarlyErrorFinishesSegment: a recorded run that leaves the lifecycle
// between Begin and its report — through any of the three harness entry
// points, by an error (unknown distribution or routing policy, a sort
// configuration run formation refuses) or by a panic (a queue the workload
// cannot build) — still leaves a closed, parseable segment whose last record
// is a finish with no report, and no goroutine — sampler daemon or segment
// writer — outlives the call.
func TestEarlyErrorFinishesSegment(t *testing.T) {
	sortWith := func(edit func(*SortRunSpec)) func(recorder.Sink) error {
		return func(sink recorder.Sink) error {
			spec := recordSpec("cell")
			spec.Record = sink
			spec.Trace = trace.New()
			spec.Experiment = "early-error"
			edit(&spec)
			_, _, err := RunSortReport(spec)
			return err
		}
	}
	for _, c := range []struct {
		name string
		run  func(recorder.Sink) error
	}{
		{"unknown dist", sortWith(func(s *SortRunSpec) { s.Dist = "no-such-dist" })},
		{"unknown policy", sortWith(func(s *SortRunSpec) { s.Policy = "no-such-policy" })},
		{"fig10 bad beta", func(sink recorder.Sink) error {
			opt := DefaultFig10Options()
			opt.N, opt.Beta, opt.Jobs = 1<<12, 0, 1
			opt.Record, opt.Experiment = sink, "early-error"
			_, err := RunFig10(opt)
			return err
		}},
		{"openloop panics", func(sink recorder.Sink) (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			opt := smallOpenLoop()
			opt.QueueCap = 0
			opt.Record, opt.Experiment = sink, "early-error"
			_, err = RunOpenLoop(opt)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			st, err := recorder.OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			if err := c.run(st); err == nil {
				t.Fatal("the run succeeded")
			}
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}
			if after := settledGoroutines(before); after > before {
				t.Errorf("%d goroutines before the run, %d after", before, after)
			}
			runs, err := st.Runs()
			if err != nil {
				t.Fatalf("segment does not parse: %v", err)
			}
			if len(runs) == 0 {
				t.Fatal("store has no runs")
			}
			// fig10 fails both of its cells; every one must be closed.
			for _, run := range runs {
				if len(run.Records) == 0 {
					t.Fatalf("%s: no records", run.Header.RunID)
				}
				last := run.Records[len(run.Records)-1]
				if last.Finish == nil || last.Finish.Report != nil {
					t.Fatalf("%s: last record = %+v, want a finish with a nil report", run.Header.RunID, last)
				}
			}
		})
	}
}
