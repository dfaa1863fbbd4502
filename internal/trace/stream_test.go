package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func fmtStream(e StreamEvent) string {
	return fmt.Sprintf("%c t=%d dur=%d %s/%s#%d %s", e.Ph, e.TS, e.Dur, e.Group, e.Track, e.TID, e.Name)
}

// collector keeps a copy of every event it is handed: a consumer that keeps
// an event must copy its args, which are the sink's scratch.
type collector struct{ events []StreamEvent }

func (c *collector) Event(e StreamEvent) {
	e.Args = slices.Clone(e.Args)
	c.events = append(c.events, e)
}

type lines struct{ got []string }

func (l *lines) Event(e StreamEvent) { l.got = append(l.got, fmtStream(e)) }

// TestConsumersSeeEventsLive: a consumer sees every event recorded while it
// is attached, live and in record order, and nothing recorded before Attach
// or after Detach. Events are counted whether or not anything consumes them.
func TestConsumersSeeEventsLive(t *testing.T) {
	s := New()
	cpu := s.SharedTrack("host0", "host0.cpu")
	q := s.NewTrack("asu0", "jobs")

	s.Instant(q, 50, "early", "queue")
	a, b := &lines{}, &lines{}
	s.Attach(a)
	s.Span(cpu, 100, 250, "compute", "cpu")
	s.Instant(q, 300, "enqueue", "queue")
	s.Attach(b)
	s.Begin(cpu, 400, "merge", "cpu")
	s.End(cpu, 450)
	s.Detach(a)
	s.Counter(q, 500, "depth", 3)
	s.Detach(a) // not attached: no-op

	want := []string{
		"X t=100 dur=150 host0/host0.cpu#1 compute",
		"i t=300 dur=0 asu0/jobs#2 enqueue",
		"B t=400 dur=0 host0/host0.cpu#1 merge",
		"E t=450 dur=0 host0/host0.cpu#1 ",
		"C t=500 dur=0 asu0/jobs#2 depth",
	}
	if got := strings.Join(a.got, "\n"); got != strings.Join(want[:4], "\n") {
		t.Fatalf("first consumer:\n%s\nwant:\n%s", got, strings.Join(want[:4], "\n"))
	}
	if got := strings.Join(b.got, "\n"); got != strings.Join(want[2:], "\n") {
		t.Fatalf("second consumer:\n%s\nwant:\n%s", got, strings.Join(want[2:], "\n"))
	}
	if s.Events() != 6 {
		t.Fatalf("Events = %d, want 6", s.Events())
	}

	// A nil sink accepts (and ignores) consumers.
	var nilSink *Sink
	nilSink.Attach(a)
	nilSink.Detach(a)
}

type counter struct{ events, args int }

func (c *counter) Event(e StreamEvent) {
	c.events++
	c.args += len(e.Args)
}

// TestSinkKeepsNoEvents records a million events, half of them with two
// args, into a sink whose only consumer counts them: the sink holds none of
// them, so the whole run allocates a few hundred bytes, not the 112 bytes an
// event (and its args) would take if they were stored.
func TestSinkKeepsNoEvents(t *testing.T) {
	const n = 1_000_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := New()
	c := &counter{}
	s.Attach(c)
	tr := s.SharedTrack("asu0", "asu0.nic")
	for i := 0; i < n; i += 2 {
		ts := Time(i) * 100
		s.Span(tr, ts, ts+80, "send", "net", Int("bytes", int64(i)), Str("to", "host0"))
		s.Instant(tr, ts+90, "sent", "net")
	}
	runtime.ReadMemStats(&after)
	if c.events != n || c.args != n || s.Events() != n {
		t.Fatalf("consumer saw %d events with %d args, sink counted %d; want %d, %d, %d",
			c.events, c.args, s.Events(), n, n, n)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("recording %d events allocated %d bytes, want < 64 KiB", n, got)
	}
}

// fuzzStrings are the names, categories, keys and string values a fuzzed
// event draws from: CSV separators and quotes, JSON escapes, multi-byte and
// line-separator runes.
var fuzzStrings = []string{"", "read", "merge.asu", "a,b", `say "hi"`, "two\nlines", "<&>",
	"naïve", "tab\there", "sep ", "nul\x00", "x;y=z"}

// opReader decodes fuzz input; past its end every byte reads as 0.
type opReader struct{ b []byte }

func (r *opReader) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// seedOps encodes n events the way FuzzSinkStream decodes them: a 4-byte
// head, the second byte choosing 0–8 args, then 2 bytes per arg.
func seedOps(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b []byte
	for i := 0; i < n; i++ {
		nargs := rng.Intn(9)
		b = append(b, byte(rng.Intn(256)), byte(nargs), byte(rng.Intn(256)), byte(rng.Intn(256)))
		for j := 0; j < 2*nargs; j++ {
			b = append(b, byte(rng.Intn(256)))
		}
	}
	return b
}

// boxed is a's value as fmt prints it: what the CSV args column and a JSON
// decoder's tokens both show.
func boxed(a Arg) any {
	switch a.Kind {
	case KindStr:
		return a.Str
	case KindBool:
		return a.Val != 0
	}
	return a.Val
}

func argText(args []Arg) []string {
	var out []string
	for _, a := range args {
		out = append(out, fmt.Sprintf("%s=%v", a.Key, boxed(a)))
	}
	return out
}

// jsonArgs reads a Chrome event's args object in document order (a map
// would lose the order and any repeated key).
func jsonArgs(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var out []string
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		v, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%v=%v", k, v))
	}
	return out
}

// FuzzSinkStream records a fuzzed sequence of Begin/End/Span/Instant/Counter
// events with 0–8 args each through one sink into three consumers at once —
// the Chrome JSON writer, the CSV writer and a collector — and checks the
// collector against the events recorded, the JSON for validity and for every
// process and thread being named before its first event, and the JSON
// events and the CSV rows against the collected events one for one, in
// order. The seeds are runs of 0, 1, 2, 10, 100 and 500 events.
func FuzzSinkStream(f *testing.F) {
	for i, n := range []int{0, 1, 2, 10, 100, 500} {
		f.Add(seedOps(n, int64(i)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var js, cs bytes.Buffer
		jw, cw, col := NewChromeWriter(&js), NewCSVWriter(&cs), &collector{}
		s := New()
		s.Attach(jw)
		s.Attach(cw)
		s.Attach(col)
		tracks := []Track{
			s.SharedTrack("asu0", "asu0.disk"),
			s.NewTrack("procs", "merge"),
			s.NewTrack("procs", "merge"), // same name, its own thread
			s.SharedTrack("host0", "host0.cpu"),
			s.NewTrack(`g,"q"`, "t\nx"),
		}
		var want []StreamEvent
		r := &opReader{data}
		ts := Time(0)
		for len(r.b) > 0 {
			h, nargs, dt, nc := r.next(), int(r.next()%9), Time(r.next()), r.next()
			ts += 7 * dt
			tr := tracks[int(h/5)%len(tracks)]
			e := StreamEvent{TS: ts, Ph: "BEXiC"[h%5], TID: int32(tr),
				Name: fuzzStrings[int(nc)%len(fuzzStrings)], Cat: fuzzStrings[int(nc/16)%len(fuzzStrings)]}
			e.Group, e.Track = s.tracks[tr-1].group, s.tracks[tr-1].name
			var args []Arg
			for j := 0; j < nargs; j++ {
				k, v := r.next(), r.next()
				key := fuzzStrings[int(k/3)%len(fuzzStrings)]
				switch k % 3 {
				case 0:
					x := int64(v)*1e15 - 1e17
					if v == 0 {
						x = math.MinInt64
					}
					args = append(args, Int(key, x))
				case 1:
					args = append(args, Str(key, fuzzStrings[int(v)%len(fuzzStrings)]))
				case 2:
					args = append(args, Bool(key, v%2 == 1))
				}
			}
			e.Args = args
			switch e.Ph {
			case phaseBegin:
				s.Begin(tr, e.TS, e.Name, e.Cat, args...)
			case phaseEnd:
				e.Name, e.Cat = "", ""
				s.End(tr, e.TS, args...)
			case phaseSpan:
				e.Dur = Time(nc) * 3
				s.Span(tr, e.TS, e.TS+e.Dur, e.Name, e.Cat, args...)
			case phaseInstant:
				s.Instant(tr, e.TS, e.Name, e.Cat, args...)
			case phaseCounter:
				e.Cat, e.Args = "", []Arg{Int("value", int64(dt)-100)}
				s.Counter(tr, e.TS, e.Name, int64(dt)-100)
			}
			want = append(want, e)
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		if s.Events() != len(want) || !reflect.DeepEqual(col.events, want) {
			t.Fatalf("collector saw %d events that differ from the %d recorded", len(col.events), len(want))
		}

		var doc struct {
			TraceEvents []struct {
				Name string          `json:"name"`
				Cat  string          `json:"cat"`
				Ph   string          `json:"ph"`
				TS   json.Number     `json:"ts"`
				Dur  json.Number     `json:"dur"`
				PID  int             `json:"pid"`
				TID  int32           `json:"tid"`
				Args json.RawMessage `json:"args"`
			} `json:"traceEvents"`
		}
		dec := json.NewDecoder(&js)
		dec.UseNumber()
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("JSON does not parse: %v", err)
		}
		procs := map[int]string{}
		threads := map[[2]int]string{}
		i := 0
		for _, je := range doc.TraceEvents {
			if je.Ph == "M" {
				var name struct{ Name string }
				if err := json.Unmarshal(je.Args, &name); err != nil {
					t.Fatal(err)
				}
				switch je.Name {
				case "process_name":
					procs[je.PID] = name.Name
				case "thread_name":
					threads[[2]int{je.PID, int(je.TID)}] = name.Name
				default:
					t.Fatalf("metadata event %q", je.Name)
				}
				continue
			}
			if i == len(want) {
				t.Fatalf("JSON holds more than the %d events recorded", len(want))
			}
			e := want[i]
			i++
			group, ok := procs[je.PID]
			if !ok {
				t.Fatalf("event %d on pid %d before the process is named", i, je.PID)
			}
			track, ok := threads[[2]int{je.PID, int(je.TID)}]
			if !ok {
				t.Fatalf("event %d on pid %d tid %d before the thread is named", i, je.PID, je.TID)
			}
			usec := func(t Time) string { return strconv.FormatFloat(float64(t)/1e3, 'f', 3, 64) }
			dur := ""
			if e.Ph == phaseSpan {
				dur = usec(e.Dur)
			}
			got := []any{je.Ph, string(je.TS), string(je.Dur), group, track, je.TID, je.Name, je.Cat, jsonArgs(t, je.Args)}
			exp := []any{string(e.Ph), usec(e.TS), dur, e.Group, e.Track, e.TID, e.Name, e.Cat, argText(e.Args)}
			if !reflect.DeepEqual(got, exp) {
				t.Fatalf("JSON event %d = %q, want %q", i, got, exp)
			}
		}
		if i != len(want) {
			t.Fatalf("JSON holds %d events, want %d", i, len(want))
		}

		rows, err := csv.NewReader(&cs).ReadAll()
		if err != nil {
			t.Fatalf("CSV does not parse: %v", err)
		}
		if len(rows) != len(want)+1 || strings.Join(rows[0], ",") != "ts_ns,dur_ns,phase,group,track,name,cat,args" {
			t.Fatalf("CSV has %d rows, want a header and %d", len(rows), len(want))
		}
		for i, e := range want {
			exp := []string{fmt.Sprint(e.TS), fmt.Sprint(e.Dur), string(e.Ph), e.Group, e.Track, e.Name, e.Cat,
				strings.Join(argText(e.Args), ";")}
			if !reflect.DeepEqual(rows[i+1], exp) {
				t.Fatalf("CSV row %d = %q, want %q", i, rows[i+1], exp)
			}
		}
	})
}

// BenchmarkSinkSpan is perf's trace.span_ns shape: Begin + End on one track,
// no args and no consumer. The sink keeps nothing, so it is 0 allocs/op
// (gated by `make bench-allocs`).
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
