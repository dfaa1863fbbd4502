package records

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBufferBasics(t *testing.T) {
	b := NewBuffer(10, DefaultSize)
	if b.Len() != 10 || b.Size() != DefaultSize || b.Bytes() != 1280 {
		t.Fatalf("Len/Size/Bytes = %d/%d/%d", b.Len(), b.Size(), b.Bytes())
	}
	b.SetKey(3, 0xdeadbeef)
	if b.Key(3) != 0xdeadbeef {
		t.Fatalf("Key(3) = %x", b.Key(3))
	}
	if got := len(b.Record(3)); got != DefaultSize {
		t.Fatalf("Record len = %d", got)
	}
}

func TestBufferTooSmallSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuffer(1, 2) did not panic")
		}
	}()
	NewBuffer(1, 2)
}

func TestSwapPreservesPayload(t *testing.T) {
	b := Generate(4, 32, 1, Uniform{})
	r0 := append([]byte(nil), b.Record(0)...)
	r3 := append([]byte(nil), b.Record(3)...)
	b.Swap(0, 3)
	for i, x := range r0 {
		if b.Record(3)[i] != x {
			t.Fatal("swap lost record 0 bytes")
		}
	}
	for i, x := range r3 {
		if b.Record(0)[i] != x {
			t.Fatal("swap lost record 3 bytes")
		}
	}
}

func TestSortSortsAndPreservesMultiset(t *testing.T) {
	for _, dist := range []KeyDist{Uniform{}, Exponential{}, &Sorted{}} {
		b := Generate(1000, DefaultSize, 7, dist)
		var before Checksum
		before.Add(b)
		b.Sort()
		if !b.IsSorted() {
			t.Fatalf("%s: not sorted", dist.Name())
		}
		var after Checksum
		after.Add(b)
		if !before.Equal(after) {
			t.Fatalf("%s: sort corrupted records: %v vs %v", dist.Name(), before, after)
		}
	}
}

func TestSortProperty(t *testing.T) {
	f := func(keys []uint32) bool {
		b := NewBuffer(len(keys), KeyBytes+4)
		for i, k := range keys {
			b.SetKey(i, Key(k))
		}
		b.Sort()
		got := make([]uint32, len(keys))
		for i := range got {
			got[i] = uint32(b.Key(i))
		}
		want := append([]uint32(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSliceAliases(t *testing.T) {
	b := NewBuffer(10, 16)
	s := b.Slice(2, 5)
	if s.Len() != 3 {
		t.Fatalf("slice len = %d", s.Len())
	}
	s.SetKey(0, 42)
	if b.Key(2) != 42 {
		t.Fatal("Slice does not alias parent")
	}
}

func TestCloneDoesNotAlias(t *testing.T) {
	b := NewBuffer(4, 16)
	c := b.Clone()
	c.SetKey(0, 99)
	if b.Key(0) == 99 {
		t.Fatal("Clone aliases parent")
	}
}

func TestCopyFrom(t *testing.T) {
	src := Generate(5, 16, 3, Uniform{})
	dst := NewBuffer(10, 16)
	dst.CopyFrom(5, src)
	for i := 0; i < 5; i++ {
		if dst.Key(5+i) != src.Key(i) {
			t.Fatal("CopyFrom mismatch")
		}
	}
}

func TestChecksumOrderIndependent(t *testing.T) {
	b := Generate(200, DefaultSize, 11, Uniform{})
	var c1 Checksum
	c1.Add(b)
	// Shuffle and re-digest.
	rng := rand.New(rand.NewSource(5))
	for i := b.Len() - 1; i > 0; i-- {
		b.Swap(i, rng.Intn(i+1))
	}
	var c2 Checksum
	c2.Add(b)
	if !c1.Equal(c2) {
		t.Fatal("checksum depends on order")
	}
	// A corrupted payload byte must change the checksum.
	b.Record(17)[20] ^= 1
	var c3 Checksum
	c3.Add(b)
	if c1.Equal(c3) {
		t.Fatal("checksum missed corruption")
	}
}

func TestChecksumDetectsDuplication(t *testing.T) {
	b := Generate(100, 32, 1, Uniform{})
	var c1 Checksum
	c1.Add(b)
	// Replace record 1 with a copy of record 0 (drop+duplicate).
	copy(b.Record(1), b.Record(0))
	var c2 Checksum
	c2.Add(b)
	if c1.Equal(c2) {
		t.Fatal("checksum missed drop+duplicate")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(100, DefaultSize, 42, Uniform{})
	b := Generate(100, DefaultSize, 42, Uniform{})
	var ca, cb Checksum
	ca.Add(a)
	cb.Add(b)
	if !ca.Equal(cb) {
		t.Fatal("same seed, different data")
	}
	c := Generate(100, DefaultSize, 43, Uniform{})
	var cc Checksum
	cc.Add(c)
	if ca.Equal(cc) {
		t.Fatal("different seed, same data")
	}
}

func TestUniformBucketsBalance(t *testing.T) {
	const n, alpha = 100000, 16
	b := Generate(n, KeyBytes+4, 9, Uniform{})
	sp := Splitters(alpha)
	counts := make([]int, alpha)
	for i := 0; i < n; i++ {
		counts[BucketOf(b.Key(i), sp)]++
	}
	want := float64(n) / alpha
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.15*want {
			t.Fatalf("uniform bucket %d has %d records, want ~%.0f", i, c, want)
		}
	}
}

func TestExponentialSkewsLow(t *testing.T) {
	const n, alpha = 100000, 16
	b := Generate(n, KeyBytes+4, 9, Exponential{Mean: 0.05})
	sp := Splitters(alpha)
	counts := make([]int, alpha)
	for i := 0; i < n; i++ {
		counts[BucketOf(b.Key(i), sp)]++
	}
	if counts[0] < n/2 {
		t.Fatalf("exponential bucket 0 has %d of %d records; expected strong skew", counts[0], n)
	}
	// And the observed share should match the analytic expectation.
	want := ExpectedShare(Exponential{Mean: 0.05}, alpha, 0)
	got := float64(counts[0]) / n
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("bucket 0 share = %.3f, want %.3f", got, want)
	}
}

func TestGenerateHalves(t *testing.T) {
	const n = 20000
	b := GenerateHalves(n, KeyBytes+4, 5, Uniform{}, Exponential{Mean: 0.05})
	// First half should straddle the key space; second half should be low.
	var hiFirst, hiSecond int
	mid := Key(MaxKey / 2)
	for i := 0; i < n/2; i++ {
		if b.Key(i) > mid {
			hiFirst++
		}
	}
	for i := n / 2; i < n; i++ {
		if b.Key(i) > mid {
			hiSecond++
		}
	}
	if hiFirst < n/5 {
		t.Fatalf("first (uniform) half has only %d/%d high keys", hiFirst, n/2)
	}
	if hiSecond > n/100 {
		t.Fatalf("second (skewed) half has %d/%d high keys; expected almost none", hiSecond, n/2)
	}
}

// TestGeneratorMatchesGenerate streams each workload through fills of one
// size into garbage-filled buffers and requires the concatenated bytes to
// equal one Generate / GenerateHalves call. 5001 records put the halves'
// split at 2500, which every fill size but 1 straddles; the sorted
// distribution carries state from one fill into the next.
func TestGeneratorMatchesGenerate(t *testing.T) {
	const n, seed = 5001, 20020724
	for _, dist := range []string{"uniform", "exp", "sorted"} {
		for _, halves := range []bool{false, true} {
			// stream returns fresh distributions (a Sorted one carries state)
			// and the split for one generation.
			stream := func() (first, second KeyDist, split int) {
				if halves {
					return goldenDist(dist), Exponential{Mean: 0.05}, n / 2
				}
				d := goldenDist(dist)
				return d, d, n
			}
			for _, size := range []int{12, 128} {
				first, second, _ := stream()
				var want Buffer
				if halves {
					want = GenerateHalves(n, size, seed, first, second)
				} else {
					want = Generate(n, size, seed, first)
				}
				for _, fill := range []int{1, 3, 63, 64, 4096} {
					first, second, split := stream()
					if halves && fill > 1 && split%fill == 0 {
						t.Fatalf("fill %d does not straddle the split at %d", fill, split)
					}
					g := NewGenerator(seed, first, second, split)
					var got []byte
					for off := 0; off < n; off += fill {
						b := NewBuffer(min(fill, n-off), size)
						for i := range b.Raw() {
							b.Raw()[i] = 0xDB
						}
						g.Fill(b)
						got = append(got, b.Raw()...)
					}
					if !bytes.Equal(got, want.Raw()) {
						t.Errorf("%s size %d halves=%v fill %d: streamed bytes differ from one call", dist, size, halves, fill)
					}
				}
			}
		}
	}
}

func TestSplittersPartitionKeySpace(t *testing.T) {
	for _, alpha := range []int{1, 2, 3, 7, 16, 256} {
		sp := Splitters(alpha)
		if len(sp) != alpha-1 {
			t.Fatalf("alpha=%d: %d splitters", alpha, len(sp))
		}
		if BucketOf(0, sp) != 0 {
			t.Fatalf("alpha=%d: key 0 in bucket %d", alpha, BucketOf(0, sp))
		}
		if BucketOf(MaxKey, sp) != alpha-1 {
			t.Fatalf("alpha=%d: MaxKey in bucket %d", alpha, BucketOf(MaxKey, sp))
		}
		for i := 1; i < len(sp); i++ {
			if sp[i] <= sp[i-1] {
				t.Fatalf("alpha=%d: splitters not increasing", alpha)
			}
		}
	}
}

// TestBucketOfProperty: BucketOf agrees with a linear scan for arbitrary
// keys and splitter counts.
func TestBucketOfProperty(t *testing.T) {
	f := func(kRaw uint32, alphaRaw uint8) bool {
		alpha := int(alphaRaw%64) + 1
		k := Key(kRaw)
		sp := Splitters(alpha)
		want := 0
		for _, s := range sp {
			if k >= s {
				want++
			}
		}
		return BucketOf(k, sp) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBucketOfMonotone(t *testing.T) {
	sp := Splitters(32)
	prev := 0
	for k := uint64(0); k <= uint64(MaxKey); k += 1 << 24 {
		b := BucketOf(Key(k), sp)
		if b < prev {
			t.Fatalf("bucket decreased at key %d", k)
		}
		prev = b
	}
}

func TestSampleSplittersBalanceSkewedData(t *testing.T) {
	const n, alpha = 50000, 8
	b := Generate(n, KeyBytes+4, 21, Exponential{Mean: 0.05})
	sp := SampleSplitters(b, alpha, 4096, 1)
	counts := make([]int, alpha)
	for i := 0; i < n; i++ {
		counts[BucketOf(b.Key(i), sp)]++
	}
	want := float64(n) / alpha
	for i, c := range counts {
		if float64(c) > 2*want || float64(c) < want/2 {
			t.Fatalf("sampled splitters: bucket %d has %d records, want ~%.0f", i, c, want)
		}
	}
}

func TestSortedDistIncreases(t *testing.T) {
	var s Sorted
	rng := rand.New(rand.NewSource(1))
	prev := s.Draw(rng)
	for i := 0; i < 100; i++ {
		k := s.Draw(rng)
		if k <= prev && k != 0 { // wraps only after 2^32 draws
			t.Fatalf("Sorted keys not increasing: %d then %d", prev, k)
		}
		prev = k
	}
}

func TestZipfDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := Zipf{}
	low := 0
	for i := 0; i < 1000; i++ {
		if z.Draw(rng) < MaxKey/4 {
			low++
		}
	}
	if low < 600 {
		t.Fatalf("zipf: only %d/1000 keys in lowest quarter; expected skew", low)
	}
}

// TestSampleSplittersSorted: whatever keys the sample draws, the splitters
// come back nondecreasing (BucketOf's binary search depends on it).
func TestSampleSplittersSorted(t *testing.T) {
	f := func(raw []uint32, alpha uint8) bool {
		if len(raw) == 0 {
			return true // SampleSplitters needs something to sample
		}
		b := NewBuffer(len(raw), KeyBytes)
		for i, k := range raw {
			b.SetKey(i, Key(k))
		}
		sp := SampleSplitters(b, int(alpha), len(raw), 1)
		return sort.SliceIsSorted(sp, func(i, j int) bool { return sp[i] < sp[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedShareUniform(t *testing.T) {
	if got := ExpectedShare(Uniform{}, 8, 3); got != 0.125 {
		t.Fatalf("uniform share = %v", got)
	}
	total := 0.0
	for i := 0; i < 8; i++ {
		total += ExpectedShare(Exponential{Mean: 0.05}, 8, i)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("exponential shares sum to %v", total)
	}
}

// TestKeyOf pins the on-disk key encoding: the first four record bytes,
// little-endian, so KeyOf agrees with Buffer.Key for every record.
func TestKeyOf(t *testing.T) {
	rec := []byte{0xef, 0xbe, 0xad, 0xde, 0x99, 0x99}
	if got := KeyOf(rec); got != 0xdeadbeef {
		t.Fatalf("KeyOf = %#x, want 0xdeadbeef", got)
	}
	b := Generate(64, 16, 3, Uniform{})
	for i := 0; i < b.Len(); i++ {
		rec := b.Record(i)
		manual := Key(rec[0]) | Key(rec[1])<<8 | Key(rec[2])<<16 | Key(rec[3])<<24
		if KeyOf(rec) != manual || KeyOf(rec) != b.Key(i) {
			t.Fatalf("record %d: KeyOf=%#x manual=%#x Key=%#x", i, KeyOf(rec), manual, b.Key(i))
		}
	}
}
