package recorder

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"lmas/internal/trace"
)

// fakeFile stands in for the segment file: it records what reaches it, fails
// every Write from call failAt on (0 = never), and, when gate is set, blocks
// each Write until the gate is closed.
type fakeFile struct {
	mu      sync.Mutex
	data    bytes.Buffer
	writes  int
	failAt  int
	gate    chan struct{}
	entered chan struct{} // closed on the first Write
	once    sync.Once
	closed  bool
}

func (f *fakeFile) Write(p []byte) (int, error) {
	if f.entered != nil {
		f.once.Do(func() { close(f.entered) })
	}
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	if f.failAt > 0 && f.writes >= f.failAt {
		return 0, fmt.Errorf("disk full on write %d", f.writes)
	}
	return f.data.Write(p)
}

func (f *fakeFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

func runOn(st *Store, f *fakeFile) *Segment {
	return &Segment{st: st, f: f, out: newChunkWriter(f, st.setErr)}
}

// testSpan is ~130 bytes a line, so 2100 of them fill one chunk.
func testSpan(i int) Span {
	return Span{T: int64(i), DurNs: 800, Ph: "X", Group: "asu0", Track: "asu0.disk", TID: 3,
		Name: "read.prefetch", Cat: "disk", Args: []SpanArg{{Key: "bytes", Val: 8192}, trace.Int("i", int64(i))}}
}

func wantLines(t *testing.T, n int) []byte {
	t.Helper()
	var want []byte
	for i := 0; i < n; i++ {
		want = append(want, marshalSpanLine(t, testSpan(i))...)
	}
	return append(want, `{"finish":{"report":null}}`+"\n"...)
}

// waitGoroutines polls until at most want goroutines remain: one that has
// signalled its exit is still counted for an instant afterwards.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChunkWriterDeliversInOrder: several chunks' worth of lines reach the
// file complete and in order, in writes of about segChunk bytes, and the
// writer goroutine is gone when Finish returns.
func TestChunkWriterDeliversInOrder(t *testing.T) {
	before := runtime.NumGoroutine()
	st := &Store{}
	f := &fakeFile{}
	r := runOn(st, f)
	const n = 10000 // ~1.3 MB: five chunks
	for i := 0; i < n; i++ {
		r.Span(testSpan(i))
	}
	r.Finish(nil)
	waitGoroutines(t, before)
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if !f.closed {
		t.Fatal("Finish left the file open")
	}
	if want := wantLines(t, n); !bytes.Equal(f.data.Bytes(), want) {
		t.Fatalf("file holds %d bytes that differ from the %d written", f.data.Len(), len(want))
	}
	if min := f.data.Len() / (segChunk + 4096); f.writes < min || f.writes > min+2 {
		t.Fatalf("%d bytes took %d writes, want about %d", f.data.Len(), f.writes, min+1)
	}
	// The run is over: further calls are dropped, not written or panicking.
	r.Span(testSpan(0))
	r.Finish(nil)
}

// TestChunkWriterLatchesFirstError: the file fails from its Nth write on.
// Store.Err reports that first error, nothing is written after it, the
// producer runs to the end without blocking, and Finish joins the goroutine.
func TestChunkWriterLatchesFirstError(t *testing.T) {
	before := runtime.NumGoroutine()
	st := &Store{}
	f := &fakeFile{failAt: 2}
	r := runOn(st, f)
	for i := 0; i < 20000; i++ { // ten chunks, eight of them after the failure
		r.Span(testSpan(i))
	}
	r.Finish(nil)
	waitGoroutines(t, before)
	if err := st.Err(); err == nil || err.Error() != "disk full on write 2" {
		t.Fatalf("Store.Err() = %v, want the first failure (write 2)", err)
	}
	if f.writes != 2 {
		t.Fatalf("%d writes reached the file, want none after the failed second", f.writes)
	}
	if !f.closed {
		t.Fatal("Finish left the file open")
	}
}

// TestChunkWriterBlockedFile: while the file blocks, the producer can run at
// most two chunks ahead (it must not finish five); once released everything
// arrives intact and Finish returns.
func TestChunkWriterBlockedFile(t *testing.T) {
	before := runtime.NumGoroutine()
	st := &Store{}
	f := &fakeFile{gate: make(chan struct{}), entered: make(chan struct{})}
	r := runOn(st, f)
	const n = 10000
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		for i := 0; i < n; i++ {
			r.Span(testSpan(i))
		}
		r.Finish(nil)
	}()
	<-f.entered
	select {
	case <-produced:
		t.Fatal("producer finished five chunks while the file accepted none")
	case <-time.After(20 * time.Millisecond):
	}
	close(f.gate)
	select {
	case <-produced:
	case <-time.After(10 * time.Second):
		t.Fatal("producer still blocked after the file was released")
	}
	waitGoroutines(t, before)
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if want := wantLines(t, n); !bytes.Equal(f.data.Bytes(), want) {
		t.Fatalf("file holds %d bytes that differ from the %d written", f.data.Len(), len(want))
	}
}

// TestConcurrentRunsOneStore: two runs stream into one store at once (the
// sweep shape) and each segment holds exactly its own spans, in order.
func TestConcurrentRunsOneStore(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 7000 // three and a half chunks each
	ids := make([]string, 2)
	var wg sync.WaitGroup
	for k := range ids {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rec := st.NewRun()
			h := testHeader("sweep", fmt.Sprintf("cell-%d", k))
			rec.Begin(h)
			ids[k] = h.RunID
			for i := 0; i < n; i++ {
				rec.Span(testSpan(i*2 + k))
			}
			rec.Finish(testReport(h.Name))
		}(k)
	}
	wg.Wait()
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	for k, id := range ids {
		path := filepath.Join(dir, id+".jsonl")
		run, err := LoadRun(path)
		if err != nil {
			t.Fatal(err)
		}
		spans := run.Spans()
		if len(spans) != n || run.Report() == nil {
			t.Fatalf("run %s: %d spans (want %d), report %v", id, len(spans), n, run.Report())
		}
		for i, sp := range spans {
			if sp.T != int64(i*2+k) {
				t.Fatalf("run %s span %d has t_ns %d, want %d", id, i, sp.T, i*2+k)
			}
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Count(b, []byte("\n")) != n+2 || b[len(b)-1] != '\n' {
			t.Fatalf("run %s: %d lines, want %d, newline-terminated", id, bytes.Count(b, []byte("\n")), n+2)
		}
	}
}

// BenchmarkStoreSpan is perf's recorder.span_write_ns shape: one Span with
// one int arg, the value reused, streamed into a real segment. The encoder
// and the chunk hand-off allocate nothing per span (gated at 0 allocs/op by
// `make bench-allocs`).
func BenchmarkStoreSpan(b *testing.B) {
	st, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	rec := st.NewRun()
	rec.Begin(&Header{Experiment: "bench", Name: "span", GitRev: "bench"})
	sp := Span{Ph: "X", Group: "asu0", Track: "asu0.disk", TID: 3, Name: "read.prefetch", Cat: "disk",
		Args: []SpanArg{{Key: "bytes", Val: 8192}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.T, sp.DurNs = int64(i)*1000, 800
		rec.Span(sp)
	}
	rec.Finish(nil)
	if err := st.Err(); err != nil {
		b.Fatal(err)
	}
}
