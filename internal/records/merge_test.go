package records

import (
	"container/heap"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// mergeSources builds k random sources of sorted buffers for a merge test:
// each source is a sorted key sequence cut into buffers of random length
// (empty ones included), and every record carries its source index in the
// four bytes after its key, so a merged record names where it came from.
// Keys are drawn from [0, keys), so a small range gives many duplicates.
func mergeSources(rng *rand.Rand, k, maxLen, keys int) [][]Buffer {
	srcs := make([][]Buffer, k)
	for i := range srcs {
		seq := make([]Key, rng.Intn(maxLen+1))
		for j := range seq {
			seq[j] = Key(rng.Intn(keys))
		}
		slices.Sort(seq)
		for len(seq) > 0 || rng.Intn(3) == 0 {
			n := min(rng.Intn(6), len(seq))
			b := NewBuffer(n, 8)
			for r := 0; r < n; r++ {
				b.SetKey(r, seq[r])
				binary.LittleEndian.PutUint32(b.Record(r)[KeyBytes:], uint32(i))
			}
			srcs[i] = append(srcs[i], b)
			seq = seq[n:]
		}
	}
	return srcs
}

// keySrc is one merged record: its key and the source it came from.
type keySrc struct {
	key Key
	src int
}

// mergeWithMerger merges srcs with a Merger, checking that every spent
// buffer handed back is the one the source gave last, exactly once.
func mergeWithMerger(t *testing.T, srcs [][]Buffer) []keySrc {
	next := make([]int, len(srcs))
	refill := func(i int, spent Buffer) (Buffer, bool) {
		var want Buffer
		if next[i] > 0 {
			want = srcs[i][next[i]-1]
		}
		if spent.Len() != want.Len() || spent.Size() != want.Size() ||
			(spent.Len() > 0 && &spent.Raw()[0] != &want.Raw()[0]) {
			t.Fatalf("source %d: spent buffer is not the one it gave last", i)
		}
		if next[i] == len(srcs[i]) {
			return Buffer{}, false
		}
		next[i]++
		return srcs[i][next[i]-1], true
	}
	m := NewMerger(len(srcs), refill)
	defer m.Release()
	var got []keySrc
	rec := make([]byte, 8)
	for m.More() {
		m.Pop(rec, refill)
		got = append(got, keySrc{KeyOf(rec), int(binary.LittleEndian.Uint32(rec[KeyBytes:]))})
	}
	for i := range srcs {
		if next[i] != len(srcs[i]) {
			t.Fatalf("source %d: merge stopped after %d of %d buffers", i, next[i], len(srcs[i]))
		}
	}
	return got
}

// refHeap is the container/heap reference frontier.
type refHeap []keySrc

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(keySrc)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// mergeWithContainerHeap is the reference merge: each source flattened to
// its key sequence, the heads in a container/heap, Fix at the root while a
// source lasts and Pop when it runs out.
func mergeWithContainerHeap(srcs [][]Buffer) []keySrc {
	seqs := make([][]Key, len(srcs))
	h := &refHeap{}
	for i, bufs := range srcs {
		for _, b := range bufs {
			for r := 0; r < b.Len(); r++ {
				seqs[i] = append(seqs[i], b.Key(r))
			}
		}
		if len(seqs[i]) > 0 {
			*h = append(*h, keySrc{seqs[i][0], i})
		}
	}
	heap.Init(h)
	pos := make([]int, len(srcs))
	var got []keySrc
	for h.Len() > 0 {
		top := (*h)[0]
		got = append(got, top)
		pos[top.src]++
		if pos[top.src] < len(seqs[top.src]) {
			(*h)[0].key = seqs[top.src][pos[top.src]]
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return got
}

// TestMergerMergesSortedSources merges random multi-buffer sources (some
// empty, some with empty buffers, many duplicate keys) and requires the
// sorted concatenation back, each record from a source that holds its key.
func TestMergerMergesSortedSources(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		srcs := mergeSources(rng, rng.Intn(9), 20, 50)
		var want []Key
		for _, bufs := range srcs {
			for _, b := range bufs {
				for r := 0; r < b.Len(); r++ {
					want = append(want, b.Key(r))
				}
			}
		}
		slices.Sort(want)
		got := mergeWithMerger(t, srcs)
		keys := make([]Key, len(got))
		for i, g := range got {
			keys[i] = g.key
		}
		if !slices.Equal(keys, want) {
			t.Fatalf("trial %d: merged %v, want %v", trial, keys, want)
		}
	}
}

// FuzzMergerMatchesContainerHeap: on any sources, the Merger pops the same
// (key, source) sequence as a container/heap frontier, which pins the order
// in which equal keys from different sources leave the merge.
func FuzzMergerMatchesContainerHeap(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, uint8(8), uint8(20), uint16(4))
	}
	f.Add(int64(5), uint8(1), uint8(40), uint16(1))
	f.Add(int64(6), uint8(33), uint8(3), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, k, maxLen uint8, keys uint16) {
		rng := rand.New(rand.NewSource(seed))
		srcs := mergeSources(rng, int(k%64), int(maxLen), int(keys)+1)
		got, want := mergeWithMerger(t, srcs), mergeWithContainerHeap(srcs)
		if !slices.Equal(got, want) {
			t.Fatalf("merger popped %v\ncontainer/heap popped %v", got, want)
		}
	})
}
