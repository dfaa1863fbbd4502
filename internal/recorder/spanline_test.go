package recorder

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"lmas/internal/trace"
)

// mirrorSpan is Span with the args it had before they were typed: each value
// boxed in an any, so the oracle is encoding/json's own encoding of the
// value, not trace.Arg's marshaller checked against itself.
type mirrorSpan struct {
	T     int64       `json:"t_ns"`
	DurNs int64       `json:"dur_ns,omitempty"`
	Ph    string      `json:"ph"`
	Group string      `json:"group"`
	Track string      `json:"track"`
	TID   int32       `json:"tid"`
	Name  string      `json:"name,omitempty"`
	Cat   string      `json:"cat,omitempty"`
	Args  []mirrorArg `json:"args,omitempty"`
}

type mirrorArg struct {
	Key string `json:"k"`
	Val any    `json:"v"`
}

func boxed(a SpanArg) any {
	switch a.Kind {
	case trace.KindStr:
		return a.Str
	case trace.KindBool:
		return a.Val != 0
	}
	return a.Val
}

// marshalSpanLine is the oracle: the line encoding/json writes for sp's
// mirror.
func marshalSpanLine(t testing.TB, sp Span) []byte {
	t.Helper()
	m := mirrorSpan{T: sp.T, DurNs: sp.DurNs, Ph: sp.Ph, Group: sp.Group, Track: sp.Track,
		TID: sp.TID, Name: sp.Name, Cat: sp.Cat}
	for _, a := range sp.Args {
		m.Args = append(m.Args, mirrorArg{a.Key, boxed(a)})
	}
	b, err := json.Marshal(struct {
		Span *mirrorSpan `json:"span"`
	}{&m})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return append(b, '\n')
}

// awkward is every kind of byte the string encoder treats specially: quote,
// backslash, the HTML three, named and unnamed control bytes, DEL, invalid
// UTF-8 (a stray continuation byte, a truncated sequence, a surrogate), the
// two line separators JSON-in-JS forbids, and ordinary multi-byte runes.
var awkward = []string{
	"", "plain", `say "hi"`, `back\slash`, "<tag> & more",
	"\b\f\n\r\t", "\x00\x01\x1f", "\x7f", "\x80", "caf\xc3", "\xed\xa0\x80",
	"line\u2028sep", "para\u2029sep", "héllo wörld ✓", "\U0001f600",
}

func spanTable() []Span {
	full := Span{T: 12345, DurNs: 800, Ph: "X", Group: "asu0", Track: "asu0.disk", TID: 3, Name: "read.prefetch", Cat: "disk"}
	spans := []Span{
		{},   // every omitempty field empty
		full, // and every one set but args
		{T: -5, DurNs: -1, Ph: "X", Group: "g", Track: "t", TID: -2},
		{T: 1 << 62, Ph: "X", Group: "g", Track: "t", TID: 1<<31 - 1, Args: []SpanArg{}},
	}
	for _, ph := range []string{"B", "E", "X", "i", "C"} {
		sp := full
		sp.Ph = ph
		spans = append(spans, sp)
	}
	for _, a := range []SpanArg{
		{Key: "v"}, trace.Int("v", -7), trace.Int("v", 8192), trace.Int("v", 1<<40),
		trace.Int("v", 1<<53+1), trace.Int("v", math.MaxInt64), trace.Int("v", math.MinInt64),
		trace.Str("v", "str"), trace.Str("v", ""), trace.Bool("v", true), trace.Bool("v", false),
	} {
		sp := full
		sp.Args = []SpanArg{a}
		spans = append(spans, sp)
	}
	multi := full
	multi.Args = []SpanArg{trace.Str("proc", "reader"), {Key: "bytes", Val: 4096}, trace.Bool("high", false), {}}
	spans = append(spans, multi)
	for _, s := range awkward {
		spans = append(spans, Span{Ph: s, Group: s, Track: s, Name: s, Cat: s,
			Args: []SpanArg{trace.Str(s, s)}})
	}
	return spans
}

// TestSpanLineMatchesJSON: the hand encoder and encoding/json agree byte for
// byte on every field combination, phase, argument type and awkward string.
func TestSpanLineMatchesJSON(t *testing.T) {
	prefix := []byte("earlier line\n")
	for i, sp := range spanTable() {
		want := marshalSpanLine(t, sp)
		got := appendSpanLine(append([]byte(nil), prefix...), &sp)
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("span %d: encoder disturbed the bytes before it", i)
		}
		if got = got[len(prefix):]; !bytes.Equal(got, want) {
			t.Errorf("span %d (%+v):\n got %s\nwant %s", i, sp, got, want)
		}
	}
}

// TestSpanArgMarshalJSON: json.Marshal of a stored span — what any caller
// outside the hand encoder gets — is the same line.
func TestSpanArgMarshalJSON(t *testing.T) {
	for i, sp := range spanTable() {
		b, err := json.Marshal(Record{Span: &sp})
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalSpanLine(t, sp); !bytes.Equal(append(b, '\n'), want) {
			t.Errorf("span %d:\n got %s\nwant %s", i, b, want)
		}
	}
}

// FuzzSpanLine holds the hand encoder to encoding/json over arbitrary bytes
// in every string position and arbitrary integers.
func FuzzSpanLine(f *testing.F) {
	for _, s := range awkward {
		f.Add(s, s, "X", s, s, s, s, int64(0), int64(0), int32(0), int64(0))
	}
	f.Add("read.prefetch", "disk", "X", "asu0", "asu0.disk", "bytes", "cold", int64(1000), int64(800), int32(3), int64(8192))
	f.Fuzz(func(t *testing.T, name, cat, ph, group, track, key, sval string, ts, dur int64, tid int32, ival int64) {
		sp := Span{T: ts, DurNs: dur, Ph: ph, Group: group, Track: track, TID: tid, Name: name, Cat: cat,
			Args: []SpanArg{trace.Str(key, sval), trace.Int(key, ival), trace.Str(sval, key),
				trace.Int("i32", int64(int32(ival))), trace.Bool("b", ival&1 == 0)}}
		got := appendSpanLine(nil, &sp)
		if want := marshalSpanLine(t, sp); !bytes.Equal(got, want) {
			t.Fatalf("\n got %s\nwant %s", got, want)
		}
	})
}

// FuzzLoadRun: the segment decoder returns a run or an error on any bytes —
// it never panics — and what it accepts replays as a begun and finished run.
func FuzzLoadRun(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(segmentHeader))
	f.Add([]byte(`{"schema":"other"}` + "\n"))
	f.Add([]byte(segmentHeader + `{"span":{"t_ns":1,"ph":"X","group":"g","track":"t","tid":1,"args":[{"k":"a","v":1}]}}` + "\n" +
		`{"sample":{"t_ns":2}}` + "\n" + `{"event":{"t_ns":3,"kind":"decision"}}` + "\n" + `{"finish":{"report":null}}` + "\n"))
	f.Add([]byte(segmentHeader + `{"span":` + "\n"))
	f.Add([]byte(segmentHeader + "\n\n" + `{"finish":{"report":{"name":"c"}}}`))
	for _, arg := range append(exactArgs, untypedArgs...) {
		f.Add([]byte(segmentHeader + spanWithArg(arg) + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := readRun("fuzz", bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = run.Report()
		var kinds []string
		run.Replay(&captureRec{kinds: &kinds})
		if kinds[0] != "begin" || !slices.Contains(kinds, "finish") {
			t.Fatalf("replay of an accepted segment = %v", kinds)
		}
	})
}
