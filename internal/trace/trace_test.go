package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestGroupOf(t *testing.T) {
	cases := map[string]string{
		"asu3.disk": "asu3",
		"host0.cpu": "host0",
		"monitor":   "monitor",
		"a.b.c":     "a.b",
		".hidden":   ".hidden",
	}
	for in, want := range cases {
		if got := GroupOf(in); got != want {
			t.Errorf("GroupOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSharedTrackRendezvous(t *testing.T) {
	s := New()
	a := s.SharedTrack("asu0", "asu0.disk")
	b := s.SharedTrack("asu0", "asu0.disk")
	if a != b {
		t.Fatalf("SharedTrack returned distinct tracks %d, %d", a, b)
	}
	c := s.NewTrack("procs", "reader")
	d := s.NewTrack("procs", "reader")
	if c == d {
		t.Fatal("NewTrack must not merge same-named tracks")
	}
	if s.Tracks() != 3 {
		t.Fatalf("Tracks = %d, want 3", s.Tracks())
	}
}

func TestNilSinkIsInert(t *testing.T) {
	var s *Sink
	tr := s.SharedTrack("g", "n")
	if tr != 0 {
		t.Fatal("nil sink returned a live track")
	}
	s.Begin(tr, 0, "x", "c")
	s.End(tr, 1)
	s.Span(tr, 0, 1, "x", "c")
	s.Instant(tr, 0, "x", "c")
	s.Counter(tr, 0, "x", 1)
	if s.Events() != 0 || s.Tracks() != 0 {
		t.Fatal("nil sink recorded something")
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil-sink JSON invalid: %v", err)
	}
}

func TestZeroTrackEventsDropped(t *testing.T) {
	s := New()
	s.Begin(0, 0, "x", "c")
	s.Instant(0, 0, "x", "c")
	if s.Events() != 0 {
		t.Fatal("events on the zero track must be dropped")
	}
}

func buildSample() *Sink {
	s := New()
	cpu := s.SharedTrack("asu0", "asu0.cpu")
	disk := s.SharedTrack("asu0", "asu0.disk")
	proc := s.NewTrack("procs", "reader")
	s.Instant(proc, 0, "spawn", "proc")
	s.Begin(cpu, 1000, "hold", "resource", Str("proc", "reader"), Bool("high", false))
	s.Span(disk, 1500, 2500, "read.cold", "disk", Int("bytes", 4096))
	s.End(cpu, 3000)
	s.Counter(proc, 3000, "depth", 2)
	return s
}

type traceEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	TS   float64         `json:"ts"`
	Dur  float64         `json:"dur"`
	PID  int             `json:"pid"`
	TID  int             `json:"tid"`
	Args json.RawMessage `json:"args"`
}

func TestWriteJSONValid(t *testing.T) {
	var buf bytes.Buffer
	if err := buildSample().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var meta, data int
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			meta++
			continue
		}
		data++
		switch e.Ph {
		case "B", "E", "X", "i", "C":
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
		if e.Ph == "X" && e.Dur < 0 {
			t.Fatalf("negative duration on %q", e.Name)
		}
	}
	// 2 groups + 3 tracks named, 5 recorded events.
	if meta != 5 || data != 5 {
		t.Fatalf("meta=%d data=%d, want 5/5", meta, data)
	}
	// Timestamps are microseconds: the hold began at 1000 ns = 1 µs.
	if !strings.Contains(buf.String(), `"ts":1.000`) {
		t.Fatalf("expected µs timestamps:\n%s", buf.String())
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildSample().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildSample().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical sinks exported different bytes")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := buildSample().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if lines[0] != "ts_ns,dur_ns,phase,group,track,name,cat,args" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 6 { // header + 5 events
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(buf.String(), "1500,1000,X,asu0,asu0.disk,read.cold,disk,bytes=4096") {
		t.Fatalf("missing disk span row:\n%s", buf.String())
	}
}

func TestSpanClampsNegativeDuration(t *testing.T) {
	s := New()
	tr := s.NewTrack("g", "n")
	s.Span(tr, 100, 50, "x", "c")
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"dur":0.000`) {
		t.Fatalf("inverted span not clamped:\n%s", buf.String())
	}
}
