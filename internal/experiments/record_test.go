package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"lmas/internal/dsmsort"
	"lmas/internal/recorder"
	"lmas/internal/telemetry"
	"lmas/internal/trace"
)

// recordSpec is a small cell used by the recording tests, small enough to
// keep the suite fast.
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

// TestRecordingNeutrality pins the acceptance criterion: recording a run into
// a store must leave the RunReport byte-identical to an unrecorded run. The
// segment is a pure observer of the virtual-time trajectory.
func TestRecordingNeutrality(t *testing.T) {
	plain, _, err := RunSortReport(recordSpec("cell"))
	if err != nil {
		t.Fatal(err)
	}

	st, err := recorder.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := recordSpec("cell")
	spec.Record = st
	spec.Experiment = "neutrality"
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

	// The observer did observe: the stored segment of this untraced run is
	// the finished report alone, reloadable byte-for-byte.
	runs := experimentRuns(t, st, "neutrality")
	if len(runs) != 1 {
		t.Fatalf("store has %d runs, want 1", len(runs))
	}
	if n := len(runs[0].Records); n != 1 || !runs[0].Finished() {
		t.Fatalf("stored run has %d records, want the finish alone", n)
	}
	stored := runs[0].Report()
	if stored == nil {
		t.Fatal("stored run has no finish report")
	}
	c, err := json.Marshal(stored)
	if err != nil {
		t.Fatal(err)
	}
	if string(c) != string(a) {
		t.Fatal("report reloaded from the store differs from the original")
	}
}

// experimentRuns loads st's runs of experiment exp, in store order.
func experimentRuns(t *testing.T, st *recorder.Store, exp string) []*recorder.RunRecord {
	t.Helper()
	all, err := st.Runs()
	if err != nil {
		t.Fatal(err)
	}
	var runs []*recorder.RunRecord
	for _, run := range all {
		if run.Header.Experiment == exp {
			runs = append(runs, run)
		}
	}
	return runs
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

// TestConcurrentRecording records parallel sweep cells into one shared store
// — the configuration `lmasreport bench -record` runs — so `go test -race`
// covers the cross-goroutine store paths.
func TestConcurrentRecording(t *testing.T) {
	st, err := recorder.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	const cells = 3
	var wg sync.WaitGroup
	errs := make([]error, cells)
	for i := 0; i < cells; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := recordSpec(fmt.Sprintf("cell-%d", i))
			spec.Record = st
			spec.Experiment = "race"
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
	runs := experimentRuns(t, st, "race")
	if len(runs) != cells {
		t.Fatalf("store has %d runs, want %d", len(runs), cells)
	}
	for _, run := range runs {
		if run.Report() == nil {
			t.Fatalf("run %s has no finish report", run.Header.RunID)
		}
	}
}

// TestTraceRecordingNeutrality extends the neutrality property to the
// recorder's trace consumer: a run with tracing attached AND streamed into a
// store produces a report byte-identical to the bare run and JSON and CSV
// trace files byte-identical to the traced-only run's (the recorder adds no
// proc, so no track), the stored segment holds the sink's spans, and
// re-recording yields byte-identical span streams (below the volatile
// header).
func TestTraceRecordingNeutrality(t *testing.T) {
	plain, _, err := RunSortReport(recordSpec("cell"))
	if err != nil {
		t.Fatal(err)
	}

	// traceFiles runs spec with JSON and CSV writers on its trace sink and
	// returns the report and both documents.
	traceFiles := func(spec SortRunSpec) (*telemetry.RunReport, []byte, []byte) {
		t.Helper()
		var j, c bytes.Buffer
		jw, cw := trace.NewChromeWriter(&j), trace.NewCSVWriter(&c)
		spec.Trace.Attach(jw)
		spec.Trace.Attach(cw)
		rep, _, err := RunSortReport(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		return rep, j.Bytes(), c.Bytes()
	}
	only := recordSpec("cell")
	only.Trace = trace.New()
	_, onlyJSON, onlyCSV := traceFiles(only)

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
		rep, recJSON, recCSV := traceFiles(spec)
		if !bytes.Equal(recJSON, onlyJSON) {
			t.Errorf("recording changed the JSON trace: %d bytes recorded, %d traced only", len(recJSON), len(onlyJSON))
		}
		if !bytes.Equal(recCSV, onlyCSV) {
			t.Errorf("recording changed the CSV trace: %d bytes recorded, %d traced only", len(recCSV), len(onlyCSV))
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
// is a finish with no report, and no goroutine — proc or segment writer —
// outlives the call.
func TestEarlyErrorFinishesSegment(t *testing.T) {
	sortWith := func(edit func(*SortRunSpec)) func(*recorder.Store) error {
		return func(st *recorder.Store) error {
			spec := recordSpec("cell")
			spec.Record = st
			spec.Trace = trace.New()
			spec.Experiment = "early-error"
			edit(&spec)
			_, _, err := RunSortReport(spec)
			return err
		}
	}
	for _, c := range []struct {
		name string
		run  func(*recorder.Store) error
	}{
		{"unknown dist", sortWith(func(s *SortRunSpec) { s.Dist = "no-such-dist" })},
		{"unknown policy", sortWith(func(s *SortRunSpec) { s.Policy = "no-such-policy" })},
		{"fig10 bad beta", func(st *recorder.Store) error {
			opt := DefaultFig10Options()
			opt.N, opt.Beta, opt.Jobs = 1<<12, 0, 1
			opt.Record, opt.Experiment = st, "early-error"
			_, err := RunFig10(opt)
			return err
		}},
		{"openloop panics", func(st *recorder.Store) (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			opt := smallOpenLoop()
			opt.QueueCap = 0
			opt.Record, opt.Experiment = st, "early-error"
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
