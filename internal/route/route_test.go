package route

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

type fakeEP struct {
	label   string
	pending int
}

func (f *fakeEP) Label() string { return f.label }
func (f *fakeEP) Pending() int  { return f.pending }

func eps(pendings ...int) []Endpoint {
	out := make([]Endpoint, len(pendings))
	for i, p := range pendings {
		out[i] = &fakeEP{label: fmt.Sprintf("ep%d", i), pending: p}
	}
	return out
}

func TestStaticPartitionsContiguously(t *testing.T) {
	s := Static{Buckets: 8}
	e := eps(0, 0)
	for b := 0; b < 4; b++ {
		if got := s.Pick(PacketInfo{Bucket: b}, e); got != 0 {
			t.Fatalf("bucket %d -> %d, want 0", b, got)
		}
	}
	for b := 4; b < 8; b++ {
		if got := s.Pick(PacketInfo{Bucket: b}, e); got != 1 {
			t.Fatalf("bucket %d -> %d, want 1", b, got)
		}
	}
}

func TestStaticIsDeterministicPerBucket(t *testing.T) {
	s := Static{Buckets: 16}
	e := eps(0, 0, 0)
	for b := 0; b < 16; b++ {
		first := s.Pick(PacketInfo{Bucket: b}, e)
		for i := 0; i < 5; i++ {
			if s.Pick(PacketInfo{Bucket: b}, e) != first {
				t.Fatal("static policy not deterministic")
			}
		}
	}
}

func TestStaticUnbucketedGoesToZero(t *testing.T) {
	s := Static{Buckets: 4}
	if got := s.Pick(PacketInfo{Bucket: -1}, eps(0, 0)); got != 0 {
		t.Fatalf("unbucketed -> %d", got)
	}
}

// TestStaticInRangeProperty: static never picks out of range, for any
// bucket/endpoint combination.
func TestStaticInRangeProperty(t *testing.T) {
	f := func(bucket uint8, buckets, n uint8) bool {
		nb := int(buckets%32) + 1
		ne := int(n%8) + 1
		s := Static{Buckets: nb}
		got := s.Pick(PacketInfo{Bucket: int(bucket) % nb}, eps(make([]int, ne)...))
		return got >= 0 && got < ne
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPinIgnoresPacketAndLoad(t *testing.T) {
	e := eps(9, 0, 0)
	for _, pk := range []PacketInfo{{Bucket: 2}, {Bucket: -1, Records: 64}} {
		if got := Pin(0).Pick(pk, e); got != 0 {
			t.Fatalf("Pin(0) picked %d", got)
		}
		if got := Pin(4).Pick(pk, e); got != 1 {
			t.Fatalf("Pin(4) over 3 endpoints picked %d, want 1", got)
		}
	}
}

func TestRoundRobinCycles(t *testing.T) {
	r := &RoundRobin{}
	e := eps(0, 0, 0)
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		if got := r.Pick(PacketInfo{}, e); got != w {
			t.Fatalf("pick %d = %d, want %d", i, got, w)
		}
	}
}

func TestSRBalancesApproximately(t *testing.T) {
	s := NewSR(1)
	e := eps(0, 0, 0, 0)
	counts := make([]int, 4)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[s.Pick(PacketInfo{Bucket: 0}, e)]++ // same bucket every time
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/4) > 0.1*n/4 {
			t.Fatalf("SR endpoint %d got %d of %d", i, c, n)
		}
	}
}

func TestSRDeterministicBySeed(t *testing.T) {
	a, b := NewSR(7), NewSR(7)
	e := eps(0, 0, 0)
	for i := 0; i < 100; i++ {
		if a.Pick(PacketInfo{}, e) != b.Pick(PacketInfo{}, e) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestLoadAwarePicksShortest(t *testing.T) {
	la := LoadAware{}
	if got := la.Pick(PacketInfo{}, eps(5, 2, 7)); got != 1 {
		t.Fatalf("picked %d, want 1", got)
	}
	// Ties go to the lowest index.
	if got := la.Pick(PacketInfo{}, eps(3, 3, 3)); got != 0 {
		t.Fatalf("tie pick = %d, want 0", got)
	}
}

func TestWeightedProportions(t *testing.T) {
	w := &Weighted{Weights: []float64{3, 1}}
	e := eps(0, 0)
	counts := make([]int, 2)
	for i := 0; i < 4000; i++ {
		counts[w.Pick(PacketInfo{}, e)]++
	}
	if counts[0] != 3000 || counts[1] != 1000 {
		t.Fatalf("weighted counts = %v, want [3000 1000]", counts)
	}
}

func TestWeightedDefaultsToEqual(t *testing.T) {
	w := &Weighted{}
	e := eps(0, 0, 0)
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[w.Pick(PacketInfo{}, e)]++
	}
	for i, c := range counts {
		if c != 1000 {
			t.Fatalf("endpoint %d got %d, want 1000", i, c)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"static", "round-robin", "rr", "sr", "random", "load-aware", "jsq"} {
		p, err := ByName(name, 8, 1)
		if err != nil || p == nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope", 8, 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestAllPoliciesInRange: every policy returns a valid index for arbitrary
// inputs.
func TestAllPoliciesInRange(t *testing.T) {
	policies := []Policy{
		Static{Buckets: 8}, &RoundRobin{}, NewSR(3), LoadAware{}, &Weighted{Weights: []float64{1, 2}},
	}
	f := func(bucket int8, nRaw, pRaw uint8) bool {
		ne := int(nRaw%6) + 1
		pend := make([]int, ne)
		for i := range pend {
			pend[i] = int(pRaw) * i
		}
		e := eps(pend...)
		for _, pol := range policies {
			got := pol.Pick(PacketInfo{Bucket: int(bucket)}, e)
			if got < 0 || got >= ne {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
