package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"lmas/internal/recorder"
	"lmas/internal/sim"
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
const (
	goldenSegmentBody = "30fa6cd836743eebe7b9b05fa4eb12317fe8182a5c2b9a4723a93e32f3e9cf46"
	goldenComposed    = "d4aa09b6adb197c6fe2ae09296e5dbe11ae4cf61b7396ad8ff37742baf14bf69"
	goldenSinkJSON    = "fe549185aab79d309a39a66892364b7a55f7bb5bfcd12f5182dc94562fb4f5eb"
	goldenSinkCSV     = "42cad73a0643ab0d7e9fff7a4a1cef00315f23bf5ba21a7eddbc585eb94b2d97"
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

// TestGoldenSegmentAndTrace records the small traced cell and compares every
// byte it stores or exports with what the parent commit produced, then
// replays the loaded run into a fresh store and requires the same bytes back.
func TestGoldenSegmentAndTrace(t *testing.T) {
	st, err := recorder.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := recordSpec("cell")
	spec.Trace = trace.New()
	spec.Record = st
	spec.Experiment = "golden"
	spec.SampleEvery = 2 * sim.Millisecond
	if _, _, err := RunSortReport(spec); err != nil {
		t.Fatal(err)
	}
	run, body := segmentBody(t, st)
	if n := len(run.Spans()); n == 0 || n != spec.Trace.Events() {
		t.Fatalf("stored %d spans, sink recorded %d events", n, spec.Trace.Events())
	}

	var composed, sinkJSON, sinkCSV bytes.Buffer
	if err := recorder.ComposeTrace(&composed, []*recorder.RunRecord{run}); err != nil {
		t.Fatal(err)
	}
	if err := spec.Trace.WriteJSON(&sinkJSON); err != nil {
		t.Fatal(err)
	}
	if err := spec.Trace.WriteCSV(&sinkCSV); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what, want string
		got        []byte
	}{
		{"segment below the header", goldenSegmentBody, body},
		{"ComposeTrace output", goldenComposed, composed.Bytes()},
		{"Sink.WriteJSON output", goldenSinkJSON, sinkJSON.Bytes()},
		{"Sink.WriteCSV output", goldenSinkCSV, sinkCSV.Bytes()},
	} {
		if got := sha256Hex(c.got); got != c.want {
			t.Errorf("%s: sha256 %s over %d bytes, want %s", c.what, got, len(c.got), c.want)
		}
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
