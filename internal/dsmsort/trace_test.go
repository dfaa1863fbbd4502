package dsmsort

import (
	"bytes"
	"encoding/json"
	"testing"

	"lmas/internal/cluster"
	"lmas/internal/records"
	"lmas/internal/sim"
	"lmas/internal/trace"
)

// tracedSort runs a small DSM-Sort with an optional trace sink attached and
// returns the elapsed virtual time and the sink.
func tracedSort(t *testing.T, attach bool) (sim.Duration, *trace.Sink) {
	t.Helper()
	var sink *trace.Sink
	if attach {
		sink = trace.New()
	}
	cl := cluster.NewObserved(testParams(1, 4), cluster.Observers{Trace: sink})
	in := MakeInput(cl, 1<<12, records.Uniform{}, 42, 64)
	cfg := Config{Alpha: 8, Beta: 64, Gamma2: 8, PacketRecords: 64,
		Placement: Active, Seed: 42}
	res, err := Sort(cl, cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	return res.Elapsed, sink
}

type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
}

// TestTraceExportWellFormed is the tentpole acceptance test: a traced sort
// exports valid Chrome trace-event JSON with nested spans, non-negative
// durations, and per-track monotonic timestamps.
func TestTraceExportWellFormed(t *testing.T) {
	_, sink := tracedSort(t, true)
	if sink.Events() == 0 {
		t.Fatal("traced sort recorded no events")
	}

	var buf bytes.Buffer
	if err := sink.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}

	type track struct{ pid, tid int }
	depth := map[track]int{}      // open B spans per track
	lastTS := map[track]float64{} // B/E/i/C cursor per track
	lastSpanStart := map[track]float64{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		tr := track{e.PID, e.TID}
		switch e.Ph {
		case "B":
			depth[tr]++
		case "E":
			depth[tr]--
			if depth[tr] < 0 {
				t.Fatalf("span end without begin on track %v at ts=%v", tr, e.TS)
			}
		case "X":
			if e.Dur < 0 {
				t.Fatalf("negative duration %v on %q", e.Dur, e.Name)
			}
			if e.TS < lastSpanStart[tr] {
				t.Fatalf("X spans move backwards on track %v: %v after %v",
					tr, e.TS, lastSpanStart[tr])
			}
			lastSpanStart[tr] = e.TS
			continue // X spans are booked ahead; not part of the B/E cursor
		case "i", "C":
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
		if e.TS < lastTS[tr] {
			t.Fatalf("timestamps move backwards on track %v: %v after %v",
				tr, e.TS, lastTS[tr])
		}
		lastTS[tr] = e.TS
	}
	for tr, d := range depth {
		if d != 0 {
			t.Fatalf("track %v ends with %d unclosed spans", tr, d)
		}
	}
}

// TestTraceDeterministic: the same seed must export a byte-identical trace.
func TestTraceDeterministic(t *testing.T) {
	_, s1 := tracedSort(t, true)
	_, s2 := tracedSort(t, true)
	var a, b bytes.Buffer
	if err := s1.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := s2.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed exported different traces")
	}
}

// TestNilSinkTimingUnchanged: tracing must be observation only — attaching a
// sink cannot change any simulated timing.
func TestNilSinkTimingUnchanged(t *testing.T) {
	untraced, _ := tracedSort(t, false)
	traced, _ := tracedSort(t, true)
	if untraced != traced {
		t.Fatalf("traced run elapsed %v, untraced %v", traced, untraced)
	}
}
