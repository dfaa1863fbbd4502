package recorder

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lmas/internal/telemetry"
)

func testHeader(exp, name string) *Header {
	return &Header{
		Experiment: exp,
		Name:       name,
		ConfigHash: "abc123",
		Seed:       7,
		Config:     telemetry.ClusterConfig{Hosts: 1, ASUs: 2},
		Workload:   map[string]any{"n": 100},
	}
}

func testReport(name string) *telemetry.RunReport {
	rep := telemetry.NewRunReport(name, 7, 0)
	rep.RuntimeSec = 1.5
	return rep
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := st.NewRun()
	h := testHeader("exp1", "cell-a")
	rec.Begin(h)
	if h.RunID == "" || h.StartedAt == "" || h.GitRev == "" {
		t.Fatalf("Begin left header unfilled: %+v", h)
	}
	rec.Sample(Sample{T: 100, Nodes: []NodeSample{{Node: "host0", CPU: 0.5, CPUBusy: 0.05}}})
	rec.Event(Event{T: 150, Kind: "decision", Source: "route.x", Action: "set-policy"})
	rec.Sample(Sample{T: 200, Queues: []QueueSample{{Queue: "q", Depth: 3, High: 5}}})
	rec.Finish(testReport("cell-a"))
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}

	run, err := LoadRun(filepath.Join(dir, h.RunID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if run.Header.Experiment != "exp1" || run.Header.Name != "cell-a" {
		t.Fatalf("header = %+v", run.Header)
	}
	if got := len(run.Samples()); got != 2 {
		t.Fatalf("samples = %d, want 2", got)
	}
	if got := len(run.Events()); got != 1 {
		t.Fatalf("events = %d, want 1", got)
	}
	rep := run.Report()
	if rep == nil || rep.Name != "cell-a" || rep.RuntimeSec != 1.5 {
		t.Fatalf("report = %+v", rep)
	}

	// Replay reproduces the original stream order.
	var kinds []string
	run.Replay(&captureRec{kinds: &kinds})
	want := []string{"begin", "sample", "event", "sample", "finish"}
	if len(kinds) != len(want) {
		t.Fatalf("replay stream %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("replay stream %v, want %v", kinds, want)
		}
	}
}

// exactArgs are stored args that must load and store again unchanged: ints
// past 2^53, which a float64 would round, at both ends of int64.
var exactArgs = []string{
	`{"k":"bytes","v":4611686018427387905}`,
	`{"k":"max","v":9223372036854775807}`,
	`{"k":"min","v":-9223372036854775808}`,
	`{"k":"to","v":"asu1"}`,
	`{"k":"high","v":true}`,
	`{"k":"cold","v":false}`,
}

// untypedArgs are stored args whose value is no int64, string or bool.
var untypedArgs = []string{
	`{"k":"frac","v":1.5}`,
	`{"k":"exp","v":1e3}`,
	`{"k":"nil","v":null}`,
	`{"k":"obj","v":{"a":1}}`,
	`{"k":"arr","v":[1]}`,
	`{"k":"over","v":9223372036854775808}`,
	`{"k":"under","v":-9223372036854775809}`,
	`{"k":"none"}`,
}

func spanWithArg(arg string) string {
	return `{"span":{"t_ns":1,"ph":"X","group":"g","track":"t","tid":1,"args":[` + arg + `]}}`
}

const segmentHeader = `{"schema":"` + StoreSchema + `","run_id":"x-0000","experiment":"x","name":"c","config_hash":"h","git_rev":"r","started_at":"t","seed":1,"config":{}}` + "\n"

// TestStoredArgsRoundTripExact: a stored segment loaded and replayed into a
// store writes the same span lines, and ComposeTrace exports the same
// values — no int comes back through a float64.
func TestStoredArgsRoundTripExact(t *testing.T) {
	dir := t.TempDir()
	var body strings.Builder
	for _, arg := range exactArgs {
		body.WriteString(spanWithArg(arg) + "\n")
	}
	body.WriteString(`{"finish":{"report":null}}` + "\n")
	path := filepath.Join(dir, "in.jsonl")
	if err := os.WriteFile(path, []byte(segmentHeader+body.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	run, err := LoadRun(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(filepath.Join(dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	run.Replay(st.NewRun())
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	runs, err := st.Runs()
	if err != nil || len(runs) != 1 {
		t.Fatalf("replayed store: %d runs, err %v", len(runs), err)
	}
	out, err := os.ReadFile(runs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(stripHeaderLine(t, out)); got != body.String() {
		t.Fatalf("replayed segment:\n%s\nwant:\n%s", got, body.String())
	}

	var doc strings.Builder
	if err := ComposeTrace(&doc, []*RunRecord{run}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"bytes":4611686018427387905`, `"max":9223372036854775807`,
		`"min":-9223372036854775808`, `"to":"asu1"`, `"high":true`, `"cold":false`} {
		if !strings.Contains(doc.String(), want) {
			t.Errorf("composed trace lacks %s", want)
		}
	}
}

// TestLoadRunRejectsUntypedArgs: a stored arg value that is no int64,
// string or bool fails LoadRun with an error naming the arg's key.
func TestLoadRunRejectsUntypedArgs(t *testing.T) {
	dir := t.TempDir()
	for i, arg := range untypedArgs {
		var key struct {
			K string `json:"k"`
		}
		if err := json.Unmarshal([]byte(arg), &key); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("bad-%d.jsonl", i))
		if err := os.WriteFile(path, []byte(segmentHeader+spanWithArg(arg)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadRun(path)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", key.K)) {
			t.Errorf("LoadRun(%s) = %v, want an error naming %q", arg, err, key.K)
		}
	}
}

type captureRec struct{ kinds *[]string }

func (c *captureRec) Begin(*Header)               { *c.kinds = append(*c.kinds, "begin") }
func (c *captureRec) Sample(Sample)               { *c.kinds = append(*c.kinds, "sample") }
func (c *captureRec) Event(Event)                 { *c.kinds = append(*c.kinds, "event") }
func (c *captureRec) Span(Span)                   { *c.kinds = append(*c.kinds, "span") }
func (c *captureRec) Finish(*telemetry.RunReport) { *c.kinds = append(*c.kinds, "finish") }

// TestSelectLatestPerCell: re-recorded cells supersede older segments; other
// experiments stay invisible.
func TestSelectLatestPerCell(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	add := func(exp, name string, runtime float64) {
		rec := st.NewRun()
		h := testHeader(exp, name)
		rec.Begin(h)
		rep := testReport(name)
		rep.RuntimeSec = runtime
		rec.Finish(rep)
	}
	add("bench", "cell-a", 1.0)
	add("bench", "cell-b", 2.0)
	add("bench", "cell-a", 3.0) // supersedes the first cell-a
	add("other", "cell-a", 9.0)
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	runs, err := st.Select("bench")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("selected %d runs, want 2", len(runs))
	}
	tr := TrajectoryOf(runs)
	if len(tr.Runs) != 2 || tr.Runs[0].Name != "cell-a" || tr.Runs[0].RuntimeSec != 3.0 {
		t.Fatalf("trajectory runs: %+v", tr.Runs)
	}
	if tr.Runs[1].Name != "cell-b" {
		t.Fatalf("second run %q, want cell-b", tr.Runs[1].Name)
	}
}

// TestHeaderOnlyVolatileFields pins the determinism contract of the segment
// format: identical record streams produce byte-identical segments below
// line one, because run IDs and wall-clock fields live only in the header.
func TestHeaderOnlyVolatileFields(t *testing.T) {
	segments := make([][]byte, 2)
	for i := range segments {
		dir := t.TempDir()
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		rec := st.NewRun()
		h := testHeader("exp", "cell")
		rec.Begin(h)
		rec.Sample(Sample{T: 100, Nodes: []NodeSample{{Node: "host0", CPU: 0.25}}})
		rec.Event(Event{T: 120, Kind: "decision", Fields: map[string]float64{"b": 2, "a": 1}})
		rec.Finish(testReport("cell"))
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, h.RunID+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		segments[i] = b
	}
	if string(stripHeaderLine(t, segments[0])) != string(stripHeaderLine(t, segments[1])) {
		t.Fatalf("segments differ below the header:\n%s\nvs\n%s", segments[0], segments[1])
	}
}

func stripHeaderLine(t *testing.T, b []byte) []byte {
	t.Helper()
	for i, c := range b {
		if c == '\n' {
			return b[i+1:]
		}
	}
	t.Fatalf("segment has no newline: %q", b)
	return nil
}

// TestStorePrune: the retention policy keeps the newest N segments, dry-run
// touches nothing, and degenerate keeps behave (negative errors, oversized
// keep is a no-op, zero empties the store).
func TestStorePrune(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		rec := st.NewRun()
		h := testHeader("bench", fmt.Sprintf("cell-%d", i))
		rec.Begin(h)
		rec.Finish(testReport(h.Name))
		ids = append(ids, h.RunID)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}

	if _, err := st.Prune(-1, false); err == nil {
		t.Fatal("negative keep did not error")
	}
	if victims, err := st.Prune(10, false); err != nil || victims != nil {
		t.Fatalf("oversized keep: victims %v, err %v", victims, err)
	}

	// Dry run lists the 3 oldest but deletes nothing.
	victims, err := st.Prune(2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 3 {
		t.Fatalf("dry-run victims = %d, want 3", len(victims))
	}
	for i, v := range victims {
		if v.Header.RunID != ids[i] {
			t.Fatalf("victim %d = %s, want oldest-first %s", i, v.Header.RunID, ids[i])
		}
		if _, err := os.Stat(v.Path); err != nil {
			t.Fatalf("dry run removed %s: %v", v.Path, err)
		}
	}

	// Real prune removes those segments; the newest 2 survive.
	victims, err = st.Prune(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 3 {
		t.Fatalf("victims = %d, want 3", len(victims))
	}
	for _, v := range victims {
		if _, err := os.Stat(v.Path); !os.IsNotExist(err) {
			t.Fatalf("victim %s still on disk (err %v)", v.Path, err)
		}
	}
	left, err := st.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 2 || left[0].Header.RunID != ids[3] || left[1].Header.RunID != ids[4] {
		t.Fatalf("survivors: %v, want %v", left, ids[3:])
	}

	// keep == 0 empties the store.
	if victims, err = st.Prune(0, false); err != nil || len(victims) != 2 {
		t.Fatalf("prune to zero: %d victims, err %v", len(victims), err)
	}
	if left, err = st.Runs(); err != nil || len(left) != 0 {
		t.Fatalf("store not empty after prune 0: %v (err %v)", left, err)
	}
}

// TestRunsSkipsUnreadableSegments: what a killed writer leaves behind — the
// zero-byte file of the O_EXCL claim, a segment cut mid-line — must not hide
// the store's other runs. Runs, Select and Prune return every readable run
// beside a *SkippedError naming each bad path; Prune never deletes what it
// could not read.
func TestRunsSkipsUnreadableSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		rec := st.NewRun()
		h := testHeader("exp", fmt.Sprintf("cell-%d", i))
		rec.Begin(h)
		rec.Sample(Sample{T: 100})
		if i == 2 {
			rec.Finish(nil) // failed after Begin
		} else {
			rec.Finish(testReport(h.Name))
		}
		ids = append(ids, h.RunID)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "exp-killed-0000.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// Cut the first run's segment in the middle of its last line.
	cut := filepath.Join(dir, ids[0]+".jsonl")
	b, err := os.ReadFile(cut)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cut, b[:len(b)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	check := func(what string, runs []*RunRecord, err error, want ...string) {
		t.Helper()
		var skipped *SkippedError
		if !errors.As(err, &skipped) || len(skipped.Skipped) != 2 {
			t.Fatalf("%s: err = %v, want a SkippedError with 2 segments", what, err)
		}
		for _, p := range []string{empty, cut} {
			if !strings.Contains(err.Error(), p) {
				t.Errorf("%s: error %q does not name %s", what, err, p)
			}
		}
		if len(runs) != len(want) {
			t.Fatalf("%s: %d runs, want %d", what, len(runs), len(want))
		}
		for i, run := range runs {
			if run.Header.RunID != want[i] {
				t.Errorf("%s: run %d = %s, want %s", what, i, run.Header.RunID, want[i])
			}
		}
	}
	runs, err := st.Runs()
	check("Runs", runs, err, ids[1], ids[2])
	if !runs[0].Finished() || runs[0].Report() == nil {
		t.Errorf("completed run: Finished=%v Report=%v", runs[0].Finished(), runs[0].Report())
	}
	if !runs[1].Finished() || runs[1].Report() != nil {
		t.Errorf("failed run: Finished=%v Report=%v, want finished without a report", runs[1].Finished(), runs[1].Report())
	}
	runs, err = st.Select("exp")
	check("Select", runs, err, ids[1], ids[2])
	runs, err = st.Prune(1, false)
	check("Prune", runs, err, ids[1])
	for _, p := range []string{empty, cut} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("Prune touched an unreadable segment: %v", err)
		}
	}

	// A single segment still fails the way it always has.
	if _, err := LoadRun(empty); err == nil || !strings.Contains(err.Error(), "empty segment") {
		t.Errorf("LoadRun(zero-byte) = %v, want an empty-segment error", err)
	}
	if _, err := LoadRun(cut); err == nil || !strings.Contains(err.Error(), "bad record") {
		t.Errorf("LoadRun(truncated) = %v, want a bad-record error", err)
	}
}
