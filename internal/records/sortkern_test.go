package records

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// referenceSort returns the expected output of Buffer.Sort: records
// stable-sorted by key via the stdlib, with ties kept in original
// position order — exactly the order the radix kernel's (key, index)
// pairs define. Comparing raw bytes against it checks keys AND payloads.
func referenceSort(b Buffer) Buffer {
	n := b.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return b.Key(idx[i]) < b.Key(idx[j]) })
	out := NewBuffer(n, b.Size())
	for i, src := range idx {
		copy(out.Record(i), b.Record(src))
	}
	return out
}

// sortTestDists covers every generator distribution MakeInputNamed knows.
func sortTestDists() []KeyDist {
	return []KeyDist{Uniform{}, Exponential{Mean: 0.05}, Zipf{}, &Sorted{}}
}

// TestRadixMatchesStdlibSort is the differential property test for the
// radix kernel: for every distribution and a spread of sizes straddling
// the radix threshold, Sort must produce exactly the record sequence the
// comparison path produces — keys AND full payloads. Both paths order
// equal keys by original position, so outputs are byte-comparable.
func TestRadixMatchesStdlibSort(t *testing.T) {
	sizes := []int{0, 1, 2, 3, radixMinLen - 1, radixMinLen, radixMinLen + 1, 257, 1000, 4096}
	for _, dist := range sortTestDists() {
		for _, n := range sizes {
			seed := int64(n + 1)
			radix := Generate(n, DefaultSize, seed, dist)
			ref := referenceSort(radix)

			var before Checksum
			before.Add(radix)

			radix.Sort()

			if !radix.IsSorted() {
				t.Fatalf("%s n=%d: radix output not sorted", dist.Name(), n)
			}
			if !bytes.Equal(radix.Raw(), ref.Raw()) {
				t.Fatalf("%s n=%d: radix and stdlib outputs differ", dist.Name(), n)
			}
			var after Checksum
			after.Add(radix)
			if !before.Equal(after) {
				t.Fatalf("%s n=%d: sort changed the record multiset: %v vs %v",
					dist.Name(), n, before, after)
			}
		}
	}
}

// TestRadixHalvesWorkload covers the Figure 10 half-uniform/half-skewed
// input, whose second half exercises the low-entropy byte-pass skip.
func TestRadixHalvesWorkload(t *testing.T) {
	for _, n := range []int{radixMinLen, 513, 2048} {
		b := GenerateHalves(n, DefaultSize, 99, Uniform{}, Exponential{Mean: 0.05})
		ref := referenceSort(b)
		b.Sort()
		if !bytes.Equal(b.Raw(), ref.Raw()) {
			t.Fatalf("halves n=%d: radix and stdlib outputs differ", n)
		}
	}
}

// TestRadixDuplicateKeys drives the cycle-following permutation through
// heavy key duplication (few distinct keys, long equal runs) and through
// the all-equal degenerate case where every radix pass is skipped.
func TestRadixDuplicateKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, distinct := range []int{1, 2, 3, 16} {
		n := 777
		b := Generate(n, DefaultSize, 11, Uniform{})
		for i := 0; i < n; i++ {
			b.SetKey(i, Key(rng.Intn(distinct))*0x01010101)
		}
		ref := referenceSort(b)
		var before Checksum
		before.Add(b)
		b.Sort()
		if !b.IsSorted() {
			t.Fatalf("distinct=%d: not sorted", distinct)
		}
		if !bytes.Equal(b.Raw(), ref.Raw()) {
			t.Fatalf("distinct=%d: radix and stdlib outputs differ", distinct)
		}
		var after Checksum
		after.Add(b)
		if !before.Equal(after) {
			t.Fatalf("distinct=%d: checksum not preserved", distinct)
		}
	}
}

// TestRadixNonDefaultRecordSizes checks the kernel across record sizes
// from key-only up to larger-than-default, including sizes that are not
// powers of two.
func TestRadixNonDefaultRecordSizes(t *testing.T) {
	for _, size := range []int{KeyBytes, 5, 17, 64, 100, 256, 640} {
		b := Generate(500, size, int64(size), Uniform{})
		ref := referenceSort(b)
		var before Checksum
		before.Add(b)
		b.Sort()
		if !b.IsSorted() {
			t.Fatalf("size=%d: not sorted", size)
		}
		if !bytes.Equal(b.Raw(), ref.Raw()) {
			t.Fatalf("size=%d: radix and stdlib outputs differ", size)
		}
		var after Checksum
		after.Add(b)
		if !before.Equal(after) {
			t.Fatalf("size=%d: checksum not preserved", size)
		}
	}
}

// TestSortAllocs is the allocation regression test for the sort path: with
// the scratch pool warm, sorting a block must not allocate. This pins both
// the radix kernel's pooled scratch and the death of the old per-Swap
// temporary slice.
func TestSortAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	buf := Generate(4096, DefaultSize, 3, Uniform{})
	small := Generate(radixMinLen/2, DefaultSize, 4, Uniform{})
	buf.Sort() // warm the pool
	small.Sort()
	if avg := testing.AllocsPerRun(20, func() { buf.Sort() }); avg > 0 {
		t.Fatalf("radix Sort allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() { small.Sort() }); avg > 0 {
		t.Fatalf("small-buffer Sort allocates %.1f allocs/op, want 0", avg)
	}
}

// FuzzRadixMatchesStableSort holds Sort to referenceSort byte for byte on
// any length (both sides of radixMinLen), record size and key spread: keys
// are masked, so a sparse mask yields long equal runs, byte positions every
// key shares (the skipped radix passes) or one key for all.
func FuzzRadixMatchesStableSort(f *testing.F) {
	f.Add(int64(1), uint16(radixMinLen-1), uint8(124), ^uint32(0))
	f.Add(int64(2), uint16(1000), uint8(124), uint32(0x0000ff00))
	f.Add(int64(3), uint16(777), uint8(0), uint32(3))
	f.Add(int64(4), uint16(300), uint8(13), uint32(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, extra uint8, mask uint32) {
		b := Generate(int(n%5000), KeyBytes+int(extra), seed, Uniform{})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < b.Len(); i++ {
			b.SetKey(i, Key(rng.Uint32()&mask))
		}
		ref := referenceSort(b)
		b.Sort()
		if !bytes.Equal(b.Raw(), ref.Raw()) {
			t.Fatalf("n=%d size=%d mask=%#x: radix and stable sort differ", b.Len(), b.Size(), mask)
		}
	})
}

// sortStdlib is the comparison path: sort.Sort over the buffer with
// full-record swaps through one scratch record.
func (b Buffer) sortStdlib() {
	sort.Sort(&bufferSorter{Buffer: b, tmp: make([]byte, b.size)})
}

// bufferSorter adapts Buffer to sort.Interface. The swap scratch lives in
// the sorter, allocated once per sort, not once per Swap call.
type bufferSorter struct {
	Buffer
	tmp []byte
}

func (s *bufferSorter) Len() int           { return s.Buffer.Len() }
func (s *bufferSorter) Less(i, j int) bool { return s.Key(i) < s.Key(j) }

func (s *bufferSorter) Swap(i, j int) {
	ri, rj := s.Record(i), s.Record(j)
	copy(s.tmp, ri)
	copy(ri, rj)
	copy(rj, s.tmp)
}

// BenchmarkBufferSortStdlib is the comparison path's benchmark twin of
// BenchmarkBufferSort, so `benchstat` can quote the radix kernel's win.
func BenchmarkBufferSortStdlib(b *testing.B) {
	src := Generate(4096, DefaultSize, 1, Uniform{})
	b.SetBytes(int64(DefaultSize))
	b.ResetTimer()
	for i := 0; i < b.N; i += 4096 {
		b.StopTimer()
		buf := src.Clone()
		b.StartTimer()
		buf.sortStdlib()
	}
}
