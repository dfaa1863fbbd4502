package recorder

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lmas/internal/telemetry"
	"lmas/internal/trace"
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
	rec.Span(Span{T: 100, DurNs: 50, Ph: "X", Group: "host0", Track: "host0.cpu", TID: 1, Name: "compute"})
	rec.Span(Span{T: 150, Ph: "i", Group: "procs", Track: "merge", TID: 2, Name: "spawn"})
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
	if spans := run.Spans(); len(spans) != 2 || spans[1].Track != "merge" {
		t.Fatalf("spans = %+v, want the two recorded", spans)
	}
	rep := run.Report()
	if rep == nil || rep.Name != "cell-a" || rep.RuntimeSec != 1.5 {
		t.Fatalf("report = %+v", rep)
	}

	// The records keep the original stream order.
	var kinds []string
	for _, r := range run.Records {
		switch {
		case r.Span != nil:
			kinds = append(kinds, "span")
		case r.Finish != nil:
			kinds = append(kinds, "finish")
		}
	}
	if want := []string{"span", "span", "finish"}; !slices.Equal(kinds, want) {
		t.Fatalf("record stream %v, want %v", kinds, want)
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

// TestLoadRunRejectsNonCanonicalRecords: a record that sets no field or two,
// or any record after the finish, fails LoadRun naming the record; a v1
// segment, whose periodic sample lines this format no longer has, is refused
// by its header.
func TestLoadRunRejectsNonCanonicalRecords(t *testing.T) {
	dir := t.TempDir()
	v1Header := strings.Replace(segmentHeader, StoreSchema, "lmas/runstore/v1", 1)
	for i, c := range []struct{ segment, want string }{
		{segmentHeader + `{}` + "\n", "record 1 sets 0 of"},
		{segmentHeader + `{"span":{"t_ns":1,"ph":"X","group":"g","track":"t","tid":1},"finish":{"report":null}}` + "\n", "record 1 sets 2 of"},
		{segmentHeader + `{"finish":{"report":null}}` + "\n" + `{"span":{"t_ns":2,"ph":"X","group":"g","track":"t","tid":1}}` + "\n", "record 2 follows the finish"},
		{v1Header + `{"sample":{"t_ns":100}}` + "\n", fmt.Sprintf(`schema "lmas/runstore/v1", want %q`, StoreSchema)},
	} {
		path := filepath.Join(dir, fmt.Sprintf("odd-%d.jsonl", i))
		if err := os.WriteFile(path, []byte(c.segment), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadRun(path); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("LoadRun(%q) = %v, want an error containing %q", c.segment, err, c.want)
		}
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
		rec.Span(Span{T: 100, DurNs: 20, Ph: "X", Group: "host0", Track: "host0.cpu", TID: 1, Name: "compute",
			Args: []SpanArg{trace.Int("ops", 1e4), trace.Str("to", "asu1")}})
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
// the store's other runs. Runs and Prune return every readable run
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
		rec.Span(Span{T: 100, Ph: "i", Group: "procs", Track: "p", TID: 1, Name: "spawn"})
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
