package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"lmas/internal/recorder"
	"lmas/internal/trace"
)

// Golden hashes of the traced+recorded recordSpec cell, captured from commit
// 8b0fb70 (the parent of the hand span encoder, the segment writer goroutine
// and the chunked trace sink) by running this test there. They pin the stored
// and exported bytes across that rewrite: CI compares segments and traces
// with cmp, so "equivalent JSON" is not enough.
//
// The segment hash was captured again when the dsmsort.merge.offload_ops and
// functor.blocksort.offload_ops counters left the report its finish line
// stores (28b0e858... before): the 4 734 lines above the finish line were
// byte-identical, and deleting the two counter objects from the old finish
// line gave the new one byte for byte.
//
// And again (cdfebaec... before) when the functor stages moved their
// queue_wait/service/latency distributions from the deleted decade-bucket
// histogram to telemetry.LatencyHistogram: the 4 712 span lines and the
// first sample line (t=2 ms, no packet through a stage yet) were
// byte-identical, the other 21 sample lines equalled the old ones once their
// new `latencies` member was removed, and the finish line equalled the old
// one once `histograms` (old) and `latencies` (new) were removed — both list
// the same nine instruments with the same counts.
//
// The two JSON hashes were captured again (d4aa09b6... composed and
// fe549185... sink before) when the sink stopped storing events and both
// documents became one pass of trace.ChromeWriter, which names a process or
// thread just before the first event that uses it. What moved: the 59
// metadata events now sit in front of their first use instead of all at the
// top; the sink's pids are numbered by first appearance (procs, asu0, asu1,
// queues, host0) instead of group registration (host0, asu0, asu1, procs,
// queues), which the composed export already did; and a track with no events
// is no longer named, which drops nothing here because every one of this
// cell's tracks carries events. The 4 712 data events are the same in the
// same order once each pid is read as its process name.
//
// All four were captured again (30fa6cd8..., edc4c353..., a9f1d696... and
// 42cad73a... before) when the kernel's event key went from (time, node
// partition, per-partition seq) back to (time, seq): same-instant events of
// different nodes now dispatch in schedule order instead of node by node,
// which moves spans and samples within an instant and, through them, later
// virtual times. Nothing else in the cell changed.
//
// The segment hash was captured again (f15ec3f6... before) when samples lost
// their `latencies` member, which only the deleted live dashboard read.
//
// All four were captured again (ce72d088..., 265d5ca1..., cf3d21fa... and
// 373b86c1... before) when the recorder stopped writing periodic sample lines
// and with them its sampler daemon, the one proc a recorded run had and an
// unrecorded one had not. The two sink hashes are now those of the same cell
// traced without a store at commit f481f96 (376 411 and 239 684 bytes).
// The old segment, minus its 22 sample lines and the daemon's 46 spans on
// track 9, with every higher tid lowered by one (45 tracks, 3 308 span
// lines), gave the new segment line for line, its finish line byte for byte.
// The composed hash follows from the sink's: the test requires the two
// documents to be equal but for the run-id process prefix.
const (
	goldenSegmentBody = "57eddd02d139493c27324d3cba9568ad5292a716dccd0be52f5483e4d1e11bff"
	goldenComposed    = "a8c0df9e8b9995db8398461225be55cff30331604e151cfe2b3f8232c6dcdb9f"
	goldenSinkJSON    = "4b7ed3646a39b5f4961d256cca8cc3cb2cad19eb8bae651097a5d19e0a59c5f0"
	goldenSinkCSV     = "53b40e03f309adb5a6fa43a7114bce5cc59f0068dc9e20bb7b926041d43fa294"
)

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// segmentBody returns the only segment of st with its header line removed.
func segmentBody(t *testing.T, st *recorder.Store) (*recorder.RunRecord, []byte) {
	t.Helper()
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	runs, err := st.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("%d segments, want 1", len(runs))
	}
	b, err := os.ReadFile(runs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		t.Fatal("segment has no header line")
	}
	return runs[0], b[i+1:]
}

// TestGoldenSegmentAndTrace records the small traced cell, with the JSON and
// CSV writers streaming beside the store, and compares every byte it stores
// or exports with the pinned hashes, then replays the loaded run into a fresh
// store and requires the same bytes back.
func TestGoldenSegmentAndTrace(t *testing.T) {
	st, err := recorder.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := recordSpec("cell")
	spec.Trace = trace.New()
	var sinkJSON, sinkCSV bytes.Buffer
	jw, cw := trace.NewChromeWriter(&sinkJSON), trace.NewCSVWriter(&sinkCSV)
	spec.Trace.Attach(jw)
	spec.Trace.Attach(cw)
	spec.Record = st
	spec.Experiment = "golden"
	if _, _, err := RunSortReport(spec); err != nil {
		t.Fatal(err)
	}
	run, body := segmentBody(t, st)
	if n := len(run.Spans()); n == 0 || n != spec.Trace.Events() {
		t.Fatalf("stored %d spans, sink recorded %d events", n, spec.Trace.Events())
	}

	var composed bytes.Buffer
	if err := recorder.ComposeTrace(&composed, []*recorder.RunRecord{run}); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what, want string
		got        []byte
	}{
		{"segment below the header", goldenSegmentBody, body},
		{"ComposeTrace output", goldenComposed, composed.Bytes()},
		{"ChromeWriter output", goldenSinkJSON, sinkJSON.Bytes()},
		{"CSVWriter output", goldenSinkCSV, sinkCSV.Bytes()},
	} {
		if got := sha256Hex(c.got); got != c.want {
			t.Errorf("%s: sha256 %s over %d bytes, want %s", c.what, got, len(c.got), c.want)
		}
	}
	// One path: the composed export is the live one but for the run-id
	// prefix on its process names.
	if got := bytes.ReplaceAll(composed.Bytes(), []byte(`"`+run.Header.RunID+"/"), []byte(`"`)); !bytes.Equal(got, sinkJSON.Bytes()) {
		t.Error("ComposeTrace output differs from the live ChromeWriter's beyond the run-id process prefix")
	}

	st2, err := recorder.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run.Replay(st2.NewRun())
	if _, replayed := segmentBody(t, st2); !bytes.Equal(replayed, body) {
		t.Fatalf("LoadRun -> Replay wrote %d bytes that differ from the original %d", len(replayed), len(body))
	}
}
