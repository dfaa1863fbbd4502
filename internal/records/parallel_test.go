package records

import (
	"bytes"
	"sync"
	"testing"
)

// reverseExec runs tasks in reverse index order — the adversarial schedule
// for anything that silently depends on chunk execution order.
func reverseExec(n int, task func(i int)) {
	for i := n - 1; i >= 0; i-- {
		task(i)
	}
}

// concurrentExec runs every task on its own goroutine, the shape the sim
// engine's worker pool produces.
func concurrentExec(n int, task func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			task(i)
		}(i)
	}
	wg.Wait()
}

var execs = []struct {
	name string
	exec Executor
}{
	{"nil", nil},
	{"serial", Serial},
	{"reverse", reverseExec},
	{"concurrent", concurrentExec},
}

// sizes cross the chunking threshold from both sides: below it the Exec
// variants take the serial path, above it they must still match bit for bit.
var execSizes = []int{0, 1, chunkRecords - 1, 2 * chunkRecords, 3*chunkRecords + 17}

func TestChecksumExecMatchesAdd(t *testing.T) {
	for _, size := range append([]int{64}, hashSizes...) {
		for _, n := range execSizes {
			b := Generate(n, size, 42, Uniform{})
			var want Checksum
			want.Add(b)
			if want.Count != n {
				t.Fatalf("size=%d n=%d: Add counted %d records", size, n, want.Count)
			}
			for _, e := range execs {
				if got := ChecksumExec(b, e.exec); got != want {
					t.Fatalf("size=%d n=%d %s: ChecksumExec = %+v, Add = %+v", size, n, e.name, got, want)
				}
			}
		}
	}
}

func TestChecksumCombine(t *testing.T) {
	b := Generate(1000, 64, 7, Uniform{})
	var whole Checksum
	whole.Add(b)
	// Any split point must combine to the whole-buffer digest.
	for _, cut := range []int{0, 1, 500, 999, 1000} {
		var lo, hi Checksum
		lo.Add(b.Slice(0, cut))
		hi.Add(b.Slice(cut, 1000))
		lo.Combine(hi)
		if lo != whole {
			t.Fatalf("cut=%d: combined %+v, whole %+v", cut, lo, whole)
		}
	}
}

func TestGenerateExecMatchesGenerate(t *testing.T) {
	dists := []KeyDist{Uniform{}, Exponential{}, Zipf{}, &Sorted{}}
	for _, dist := range dists {
		freshDist := func() KeyDist {
			if _, ok := dist.(*Sorted); ok {
				return &Sorted{} // stateful: each run needs its own
			}
			return dist
		}
		for _, n := range execSizes {
			want := Generate(n, 96, 1234, freshDist())
			for _, e := range execs {
				got := GenerateExec(n, 96, 1234, freshDist(), e.exec)
				if !bytes.Equal(got.Raw(), want.Raw()) {
					t.Fatalf("%s n=%d %s: GenerateExec bytes diverge from Generate",
						dist.Name(), n, e.name)
				}
			}
		}
	}
}

func TestGenerateHalvesExecMatchesGenerateHalves(t *testing.T) {
	for _, n := range execSizes {
		want := GenerateHalves(n, 96, 99, Uniform{}, Exponential{})
		for _, e := range execs {
			got := GenerateHalvesExec(n, 96, 99, Uniform{}, Exponential{}, e.exec)
			if !bytes.Equal(got.Raw(), want.Raw()) {
				t.Fatalf("n=%d %s: GenerateHalvesExec bytes diverge", n, e.name)
			}
		}
	}
}
