package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestSinkChunkBoundaries fills sinks to sizes on and around the storage
// chunk size and checks every reader of the event store — Events, WriteJSON
// and WriteCSV — and the streamer's live view of the same events against a
// reference kept in one plain slice. The read spans carry runs of 2 to 8
// args, so at 10000 events one run straddles the end of an arg chunk.
func TestSinkChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, eventChunk - 1, eventChunk, eventChunk + 1, 10000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			s := New()
			var streamed []StreamEvent
			s.SetStreamer(func(e StreamEvent) { streamed = append(streamed, e) })
			tracks := []Track{s.SharedTrack("asu0", "asu0.disk"), s.NewTrack("procs", "merge")}
			names := [][2]string{{"asu0", "asu0.disk"}, {"procs", "merge"}}
			var ref []StreamEvent
			record := func(i int) {
				k := i % 2
				e := StreamEvent{TS: Time(10 * i), Group: names[k][0], Track: names[k][1], TID: int32(tracks[k])}
				switch i % 5 {
				case 0:
					e.Ph, e.Name, e.Cat = phaseBegin, "hold", "resource"
					e.Args = []Arg{Int("i", int64(i))}
					s.Begin(tracks[k], e.TS, e.Name, e.Cat, e.Args...)
				case 1:
					e.Ph = phaseEnd
					s.End(tracks[k], e.TS)
				case 2:
					e.Ph, e.Dur, e.Name, e.Cat = phaseSpan, 7, "read", "disk"
					e.Args = []Arg{Int("bytes", 4096), Bool("cold", i%3 == 0)}
					for j := 0; j < i%7; j++ {
						e.Args = append(e.Args, Str("to", fmt.Sprint("asu", j)))
					}
					s.Span(tracks[k], e.TS, e.TS+7, e.Name, e.Cat, e.Args...)
				case 3:
					e.Ph, e.Name, e.Cat = phaseInstant, "enqueue", "queue"
					s.Instant(tracks[k], e.TS, e.Name, e.Cat)
				case 4:
					e.Ph, e.Name = phaseCounter, "depth"
					e.Args = []Arg{Int("value", int64(i))}
					s.Counter(tracks[k], e.TS, e.Name, int64(i))
				}
				ref = append(ref, e)
			}
			for i := 0; i < n; i++ {
				record(i)
			}
			if s.Events() != n {
				t.Fatalf("Events() = %d, want %d", s.Events(), n)
			}
			if n == 10000 && len(s.args[0]) == argChunk {
				t.Fatal("no arg run straddled the first arg chunk")
			}

			if !reflect.DeepEqual(streamed, ref) {
				t.Fatalf("streamer saw %d events that differ from the %d recorded", len(streamed), len(ref))
			}

			var want, got bytes.Buffer
			cw := NewChromeWriter(&want)
			cw.Process(0, "asu0")
			cw.Process(1, "procs")
			cw.Thread(0, 1, "asu0.disk")
			cw.Thread(1, 2, "merge")
			for i, e := range ref {
				if err := cw.Event(i%2, e); err != nil {
					t.Fatal(err)
				}
			}
			if err := cw.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("WriteJSON (%d bytes) differs from the reference document (%d bytes)", got.Len(), want.Len())
			}

			got.Reset()
			if err := s.WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			rows := bytes.Split(bytes.TrimSuffix(got.Bytes(), []byte("\n")), []byte("\n"))
			if len(rows) != len(ref)+1 {
				t.Fatalf("WriteCSV wrote %d rows, want %d", len(rows), len(ref)+1)
			}
			for i, e := range ref {
				if prefix := fmt.Sprintf("%d,%d,%c,%s,%s,", e.TS, e.Dur, e.Ph, e.Group, e.Track); !bytes.HasPrefix(rows[i+1], []byte(prefix)) {
					t.Fatalf("CSV row %d = %q, want prefix %q", i, rows[i+1], prefix)
				}
				// The args column is what fmt's %v printed for the boxed values.
				var args []string
				for _, a := range e.Args {
					args = append(args, fmt.Sprintf("%s=%v", a.Key, boxed(a)))
				}
				if suffix := "," + strings.Join(args, ";"); !bytes.HasSuffix(rows[i+1], []byte(suffix)) {
					t.Fatalf("CSV row %d = %q, want suffix %q", i, rows[i+1], suffix)
				}
			}
		})
	}
}

// boxed is a's value as the any it was before args were typed.
func boxed(a Arg) any {
	switch a.Kind {
	case KindStr:
		return a.Str
	case KindBool:
		return a.Val != 0
	}
	return a.Val
}

// BenchmarkSinkSpan is perf's trace.span_ns shape: Begin + End on one track,
// no args. Chunked storage allocates once per eventChunk events, so it
// amortises to 0 allocs/op (gated by `make bench-allocs`).
func BenchmarkSinkSpan(b *testing.B) {
	s := New()
	tr := s.NewTrack("unit", "track")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Begin(tr, Time(2*i), "op", "unit")
		s.End(tr, Time(2*i+1))
	}
}
