package recorder

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// marshalSpanLine is the oracle: the line encoding/json writes for sp.
func marshalSpanLine(t testing.TB, sp Span) []byte {
	t.Helper()
	b, err := json.Marshal(Record{Span: &sp})
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
	for _, v := range []any{
		// the fast paths
		0, -7, 8192, int32(-3), int64(1) << 40, "str", "", true, false,
		// everything else falls back to json.Marshal
		nil, 3.5, float32(0.1), 1e21, uint8(200), uint64(1) << 63, int16(-9),
		[]int{1, 2}, map[string]any{"b": "<", "a": []any{1, "x"}},
		struct {
			A int    `json:"a"`
			B string `json:"b,omitempty"`
		}{A: 1},
		json.RawMessage(`{"raw" : [1, 2]}`),
	} {
		sp := full
		sp.Args = []SpanArg{{Key: "v", Val: v}}
		spans = append(spans, sp)
	}
	multi := full
	multi.Args = []SpanArg{{Key: "proc", Val: "reader"}, {Key: "bytes", Val: 4096}, {Key: "high", Val: false}, {Key: "", Val: nil}}
	spans = append(spans, multi)
	for _, s := range awkward {
		spans = append(spans, Span{Ph: s, Group: s, Track: s, Name: s, Cat: s,
			Args: []SpanArg{{Key: s, Val: s}}})
	}
	return spans
}

// TestSpanLineMatchesJSON: the hand encoder and encoding/json agree byte for
// byte on every field combination, phase, argument type and awkward string.
func TestSpanLineMatchesJSON(t *testing.T) {
	prefix := []byte("earlier line\n")
	for i, sp := range spanTable() {
		want := marshalSpanLine(t, sp)
		got, err := appendSpanLine(append([]byte(nil), prefix...), &sp)
		if err != nil {
			t.Fatalf("span %d (%+v): %v", i, sp, err)
		}
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("span %d: encoder disturbed the bytes before it", i)
		}
		if got = got[len(prefix):]; !bytes.Equal(got, want) {
			t.Errorf("span %d (%+v):\n got %s\nwant %s", i, sp, got, want)
		}
	}
}

// TestSpanLineUnencodableArg: a value encoding/json rejects is reported, not
// written.
func TestSpanLineUnencodableArg(t *testing.T) {
	sp := Span{Ph: "i", Group: "g", Track: "t", Args: []SpanArg{{Key: "ok", Val: 1}, {Key: "bad", Val: make(chan int)}}}
	if _, err := appendSpanLine(nil, &sp); err == nil {
		t.Fatal("a channel argument encoded without error")
	}
	if _, err := json.Marshal(Record{Span: &sp}); err == nil {
		t.Fatal("oracle accepts a channel argument")
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
			Args: []SpanArg{{Key: key, Val: sval}, {Key: key, Val: ival}, {Key: sval, Val: int(ival)},
				{Key: "i32", Val: int32(ival)}, {Key: "b", Val: ival&1 == 0}}}
		got, err := appendSpanLine(nil, &sp)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalSpanLine(t, sp); !bytes.Equal(got, want) {
			t.Fatalf("\n got %s\nwant %s", got, want)
		}
	})
}

// FuzzLoadRun: the segment decoder returns a run or an error on any bytes —
// it never panics — and what it accepts replays as a begun and finished run.
func FuzzLoadRun(f *testing.F) {
	header := `{"schema":"` + StoreSchema + `","run_id":"x-0000","experiment":"x","name":"c","config_hash":"h","git_rev":"r","started_at":"t","seed":1,"config":{}}` + "\n"
	f.Add([]byte(""))
	f.Add([]byte(header))
	f.Add([]byte(`{"schema":"other"}` + "\n"))
	f.Add([]byte(header + `{"span":{"t_ns":1,"ph":"X","group":"g","track":"t","tid":1,"args":[{"k":"a","v":1}]}}` + "\n" +
		`{"sample":{"t_ns":2}}` + "\n" + `{"event":{"t_ns":3,"kind":"decision"}}` + "\n" + `{"finish":{"report":null}}` + "\n"))
	f.Add([]byte(header + `{"span":` + "\n"))
	f.Add([]byte(header + "\n\n" + `{"finish":{"report":{"name":"c"}}}`))
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
