package dsmsort

import (
	"math/rand"
	"sort"
	"testing"

	"lmas/internal/bufpool"
	"lmas/internal/records"
)

// sortedRandomBuffers builds k pooled sorted buffers with random lengths and
// payloads (about one in eight empty), the input shape of one ASU merge batch.
func sortedRandomBuffers(rng *rand.Rand, k, recSize int) []records.Buffer {
	bufs := make([]records.Buffer, k)
	for i := range bufs {
		n := rng.Intn(200)
		if rng.Intn(8) == 0 {
			n = 0
		}
		b := records.NewPooled(n, recSize)
		for r := 0; r < n; r++ {
			rec := b.Record(r)
			for j := range rec {
				rec[j] = byte(rng.Intn(256))
			}
		}
		keys := make([]records.Key, n)
		for r := range keys {
			keys[r] = records.Key(rng.Uint32())
		}
		sort.Slice(keys, func(a, c int) bool { return keys[a] < keys[c] })
		for r, key := range keys {
			b.SetKey(r, key)
		}
		bufs[i] = b
	}
	return bufs
}

// TestMergeBuffersSortedPermutation: on random sorted inputs, some of them
// empty, mergeBuffers returns a sorted buffer holding exactly the inputs'
// records (equal count and multiset checksum). Runs under bufpool debug, so a
// merge that released or kept a buffer it should not have fails the leak
// check or trips the poison.
func TestMergeBuffersSortedPermutation(t *testing.T) {
	prev := bufpool.SetDebug(true)
	defer bufpool.SetDebug(prev)
	const recSize = 32
	rng := rand.New(rand.NewSource(7))
	sawEmpty := false
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.Intn(8)
		bufs := sortedRandomBuffers(rng, k, recSize)
		var want records.Checksum
		for _, b := range bufs {
			want.Add(b)
			sawEmpty = sawEmpty || b.Len() == 0
		}
		got := mergeBuffers(bufs, recSize)
		if !got.IsSorted() {
			t.Fatalf("trial %d (k=%d): merged output not sorted", trial, k)
		}
		var sum records.Checksum
		sum.Add(got)
		if !sum.Equal(want) {
			t.Fatalf("trial %d (k=%d): merged checksum %v, inputs %v", trial, k, sum, want)
		}
		got.Release()
		for _, b := range bufs {
			b.Release()
		}
	}
	if !sawEmpty {
		t.Fatal("no trial merged an empty input")
	}
	if err := bufpool.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}
