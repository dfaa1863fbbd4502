package records

import (
	"math/rand"
	"slices"
	"testing"
)

// TestMergeHeapMergesSortedSources drives the frontier the way every merge
// loop does — append heads, Init, then FixTop or PopTop at the root — over
// random sorted sources (some empty, many duplicate keys) and requires the
// sorted concatenation back.
func TestMergeHeapMergesSortedSources(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		srcs := make([][]Key, rng.Intn(9))
		var want []Key
		for i := range srcs {
			srcs[i] = make([]Key, rng.Intn(20))
			for j := range srcs[i] {
				srcs[i][j] = Key(rng.Intn(50))
			}
			slices.Sort(srcs[i])
			want = append(want, srcs[i]...)
		}
		slices.Sort(want)

		var h MergeHeap
		pos := make([]int, len(srcs))
		for i, s := range srcs {
			if len(s) > 0 {
				h = append(h, MergeItem{Key: s[0], Src: i})
			}
		}
		h.Init()
		var got []Key
		for len(h) > 0 {
			src := h[0].Src
			got = append(got, h[0].Key)
			pos[src]++
			if pos[src] < len(srcs[src]) {
				h[0] = MergeItem{Key: srcs[src][pos[src]], Src: src}
				h.FixTop()
			} else {
				h.PopTop()
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: merged %v, want %v", trial, got, want)
		}
	}
}
