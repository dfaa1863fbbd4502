package trace

import (
	"fmt"
	"strings"
	"testing"
)

func fmtStream(e StreamEvent) string {
	return fmt.Sprintf("%c t=%d dur=%d %s/%s#%d %s", e.Ph, e.TS, e.Dur, e.Group, e.Track, e.TID, e.Name)
}

// TestSetStreamerReplayThenLive: a streamer sees every event recorded while
// it is installed, live and in record order, and nothing else. There is no
// replay: the cluster installs its one streamer on an empty sink, before any
// proc exists. (The test keeps its old name; its replay half went with the
// replay.)
func TestSetStreamerReplayThenLive(t *testing.T) {
	s := New()
	cpu := s.SharedTrack("host0", "host0.cpu")
	q := s.NewTrack("asu0", "jobs")

	var got []string
	s.SetStreamer(func(e StreamEvent) { got = append(got, fmtStream(e)) })

	s.Span(cpu, 100, 250, "compute", "cpu")
	s.Instant(q, 300, "enqueue", "queue")
	s.Begin(cpu, 400, "merge", "cpu")
	s.End(cpu, 450)
	s.Counter(q, 500, "depth", 3)

	want := []string{
		"X t=100 dur=150 host0/host0.cpu#1 compute",
		"i t=300 dur=0 asu0/jobs#2 enqueue",
		"B t=400 dur=0 host0/host0.cpu#1 merge",
		"E t=450 dur=0 host0/host0.cpu#1 ",
		"C t=500 dur=0 asu0/jobs#2 depth",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("stream:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// Clearing stops the stream without touching the buffer.
	s.SetStreamer(nil)
	s.Instant(q, 600, "late", "queue")
	if len(got) != len(want) {
		t.Fatalf("cleared streamer still invoked: %d events", len(got))
	}
	if s.Events() != 6 {
		t.Fatalf("buffer = %d events, want 6", s.Events())
	}

	// A nil sink accepts (and ignores) a streamer.
	var nilSink *Sink
	nilSink.SetStreamer(func(StreamEvent) { t.Fatal("nil sink streamed") })
}
