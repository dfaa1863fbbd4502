package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"lmas/internal/recorder"
	"lmas/internal/trace"
)

// benchObservers times RunSortReport of spec with the chosen observers on.
// Segments pile up in the benchmark's temp store; deleting them is not timed.
func benchObservers(b *testing.B, spec SortRunSpec, traced, critpath, recorded bool) {
	dir := b.TempDir()
	st, err := recorder.OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	spec.Critpath = critpath
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if traced {
			spec.Trace = trace.New()
		}
		if recorded {
			spec.Record = st
		}
		if _, _, err := RunSortReport(spec); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		segments, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
		if err != nil {
			b.Fatal(err)
		}
		for _, seg := range segments {
			if err := os.Remove(seg); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
	if err := st.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkObservedQuickCell is the quick bench cell with the trace sink and
// the run store both attached — every trace event streamed into the store.
// Its allocs/op are gated by `make bench-allocs`: no trace event allocates,
// so a regression in the call sites' args, the sink, the bridge or the span
// encoder shows up here as a multiple.
func BenchmarkObservedQuickCell(b *testing.B) {
	benchObservers(b, BenchMatrix(true, 1)[0], true, false, true)
}

// BenchmarkObserverCost is the full-size cell perf calls sort_uniform, bare
// and with each observer: the allocation columns of EXPERIMENTS.md's observer
// cost table (its wall-clock columns come from `perf -trace 1`, which
// interleaves the configurations).
func BenchmarkObserverCost(b *testing.B) {
	for _, c := range []struct {
		name                       string
		traced, critpath, recorded bool
	}{
		{"bare", false, false, false},
		{"critpath", false, true, false},
		{"recorder", false, false, true},
		{"trace", true, false, false},
		{"all", true, true, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			benchObservers(b, BenchMatrix(false, 3)[0], c.traced, c.critpath, c.recorded)
		})
	}
}
