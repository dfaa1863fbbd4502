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
	s.Attach(&lines{})
	if s.Events() != 0 || s.Tracks() != 0 {
		t.Fatal("nil sink recorded something")
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

// buildSample records a small trace into the given consumers.
func buildSample(consumers ...Consumer) *Sink {
	s := New()
	for _, c := range consumers {
		s.Attach(c)
	}
	cpu := s.SharedTrack("asu0", "asu0.cpu")
	disk := s.SharedTrack("asu0", "asu0.disk")
	s.SharedTrack("asu0", "asu0.nic") // no events: never named
	proc := s.NewTrack("procs", "reader")
	s.Instant(proc, 0, "spawn", "proc")
	s.Begin(cpu, 1000, "hold", "resource", Str("proc", "reader"), Bool("high", false))
	s.Span(disk, 1500, 2500, "read.cold", "disk", Int("bytes", 4096))
	s.End(cpu, 3000)
	s.Counter(proc, 3000, "depth", 2)
	return s
}

// sampleJSON is buildSample's events through a ChromeWriter.
func sampleJSON(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := NewChromeWriter(&buf)
	buildSample(cw)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

// TestWriteJSONValid: the ChromeWriter's document parses, names each
// process and thread once, just before the first event that uses it, and
// leaves a track without events unnamed.
func TestWriteJSONValid(t *testing.T) {
	buf := bytes.NewBuffer(sampleJSON(t))
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
	// 2 groups + 3 tracks named (not the idle NIC), 5 recorded events.
	if meta != 5 || data != 5 {
		t.Fatalf("meta=%d data=%d, want 5/5", meta, data)
	}
	var order []string
	for _, e := range doc.TraceEvents {
		order = append(order, e.Ph+":"+e.Name)
	}
	want := "M:process_name M:thread_name i:spawn M:process_name M:thread_name B:hold M:thread_name X:read.cold E: C:depth"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("event order:\n%s\nwant:\n%s", got, want)
	}
	// Timestamps are microseconds: the hold began at 1000 ns = 1 µs.
	if !strings.Contains(buf.String(), `"ts":1.000`) {
		t.Fatalf("expected µs timestamps:\n%s", buf.String())
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	if !bytes.Equal(sampleJSON(t), sampleJSON(t)) {
		t.Fatal("identical sinks exported different bytes")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCSVWriter(&buf)
	buildSample(cw)
	if err := cw.Close(); err != nil {
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
	var buf bytes.Buffer
	cw := NewChromeWriter(&buf)
	s := New()
	s.Attach(cw)
	tr := s.NewTrack("g", "n")
	s.Span(tr, 100, 50, "x", "c")
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"dur":0.000`) {
		t.Fatalf("inverted span not clamped:\n%s", buf.String())
	}
}

// TestChromeWriterRejectsUnknownPhase: an event whose phase a Sink never
// records (a stored span can hold anything) writes nothing and is the
// writer's error.
func TestChromeWriterRejectsUnknownPhase(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChromeWriter(&buf)
	cw.Event(StreamEvent{Ph: 'Q', Group: "g", Track: "t", TID: 1, Name: "odd"})
	if cw.Err() == nil {
		t.Fatal("unknown phase accepted")
	}
	if err := cw.Close(); err == nil || !strings.Contains(err.Error(), `event "odd": unknown phase 'Q'`) {
		t.Fatalf("Close = %v, want the unknown-phase error", err)
	}
	if got := buf.String(); got != `{"displayTimeUnit":"ms","traceEvents":[`+"\n]}\n" {
		t.Fatalf("wrote %q, want an empty document", got)
	}
}
