package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"lmas/internal/sim"
)

// TestLatencyBucketBoundaries pins the bucket layout at its edges: exact
// single-nanosecond buckets below 32, the first split octave, values on
// either side of a sub-bucket edge, and the top of the int64 range. The
// layout is the determinism contract — if these move, stored reports stop
// comparing across binaries.
func TestLatencyBucketBoundaries(t *testing.T) {
	cases := []struct {
		v     int64
		idx   int
		upper int64
	}{
		{0, 0, 0},    // smallest value: its own exact bucket
		{1, 1, 1},    // exact region is one bucket per nanosecond
		{31, 31, 31}, // last exact bucket
		{32, 32, 32}, // octave [32,64) still has width-1 sub-buckets
		{33, 33, 33},
		{63, 63, 63},      // top of the first split octave
		{64, 64, 65},      // octave [64,128): sub-bucket width 2
		{65, 64, 65},      // shares 64's sub-bucket
		{127, 95, 127},    // top of the [64,128) octave
		{128, 96, 131},    // octave [128,256): sub-bucket width 4
		{1000, 190, 1007}, // mid-range value
		{1 << 40, 35*32 + 32, (1 << 40) + (1 << 35) - 1}, // a deep octave's first bucket
		{math.MaxInt64, 57*32 + 63, math.MaxInt64},       // overflow guard: top bucket holds MaxInt64
	}
	for _, c := range cases {
		if got := latBucketIdx(c.v); got != c.idx {
			t.Errorf("latBucketIdx(%d) = %d, want %d", c.v, got, c.idx)
		}
		if got := latBucketUpper(c.idx); got != c.upper {
			t.Errorf("latBucketUpper(%d) = %d, want %d", c.idx, got, c.upper)
		}
	}
	// Every value maps into a bucket whose range contains it.
	for _, v := range []int64{0, 1, 31, 32, 63, 64, 65, 100, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		idx := latBucketIdx(v)
		if up := latBucketUpper(idx); v > up {
			t.Errorf("value %d above its bucket upper %d (idx %d)", v, up, idx)
		}
		if idx > 0 {
			if lowerUp := latBucketUpper(idx - 1); v <= lowerUp {
				t.Errorf("value %d within previous bucket (upper %d, idx %d)", v, lowerUp, idx)
			}
		}
	}
}

// TestLatencyObserveEdges drives Observe over the boundary values and checks
// the summary stats and quantile clamps.
func TestLatencyObserveEdges(t *testing.T) {
	h := &LatencyHistogram{name: "edge"}
	h.Observe(0)
	h.Observe(-5) // clamps to 0
	h.Observe(1)
	h.Observe(sim.Duration(math.MaxInt64))
	if h.Count() != 4 || h.Min() != 0 || h.Max() != math.MaxInt64 {
		t.Fatalf("count/min/max = %d/%d/%d", h.Count(), h.Min(), h.Max())
	}
	// Quantiles clamp to observed extremes rather than bucket bounds.
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("q0 = %d", got)
	}
	if got := h.Quantile(1); got != math.MaxInt64 {
		t.Fatalf("q1 = %d", got)
	}
	// 3 of 4 observations are <= 1, so p50 lands in the exact region.
	if got := h.Quantile(0.50); got != 0 {
		t.Fatalf("p50 = %d, want 0 (rank 2 of [0 0 1 max])", got)
	}

	// A maximum that creeps up one bucket at a time (a functor stage's
	// service times do) grows counts geometrically, not by one exact-size
	// copy per new bucket.
	const buckets = 1024
	var g LatencyHistogram
	regrown := 0
	for idx := 0; idx < buckets; idx++ {
		before := cap(g.counts)
		g.Observe(sim.Duration(latBucketUpper(idx)))
		if cap(g.counts) != before {
			regrown++
		}
	}
	if g.Count() != buckets || len(g.counts) != buckets {
		t.Fatalf("count/len = %d/%d", g.Count(), len(g.counts))
	}
	if regrown > 32 {
		t.Fatalf("%d ascending buckets regrew counts %d times, want amortised growth", buckets, regrown)
	}

	var nilH *LatencyHistogram
	nilH.Observe(5) // must not panic
	if nilH.Count() != 0 || nilH.Quantile(0.5) != 0 || nilH.Name() != "" {
		t.Fatal("nil histogram is not a no-op")
	}
}

// TestLatencyQuantileDifferential compares the bucketed nearest-rank
// quantile against an exact sorted-slice reference on random workloads
// spanning several magnitudes. The bucket layout guarantees the estimate is
// an upper bound within one sub-bucket (~3.2% relative) of the exact value.
func TestLatencyQuantileDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	quantiles := []float64{0.50, 0.90, 0.99, 0.999}
	for trial := 0; trial < 20; trial++ {
		n := 100 + rng.Intn(5000)
		h := &LatencyHistogram{name: "diff"}
		vals := make([]int64, n)
		for i := range vals {
			// Log-uniform magnitudes: ns to tens of seconds.
			v := int64(math.Exp(rng.Float64() * math.Log(4e10)))
			vals[i] = v
			h.Observe(sim.Duration(v))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range quantiles {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			exact := vals[rank-1]
			got := h.Quantile(q)
			if got < exact {
				t.Fatalf("trial %d q%.3f: estimate %d below exact %d", trial, q, got, exact)
			}
			// Upper bound of the exact value's bucket is the worst case.
			worst := latBucketUpper(latBucketIdx(exact))
			if got > worst {
				t.Fatalf("trial %d q%.3f: estimate %d above bucket bound %d (exact %d)",
					trial, q, got, worst, exact)
			}
		}
	}
}

// TestLatencyReportDeterministic: two histograms fed the same values in
// different orders produce identical reports.
func TestLatencyReportDeterministic(t *testing.T) {
	vals := []int64{0, 1, 31, 32, 33, 64, 999, 1 << 20, 1 << 33, 12345678}
	a := &LatencyHistogram{name: "h"}
	b := &LatencyHistogram{name: "h"}
	for _, v := range vals {
		a.Observe(sim.Duration(v))
	}
	for i := len(vals) - 1; i >= 0; i-- {
		b.Observe(sim.Duration(vals[i]))
	}
	ra, rb := a.Report(), b.Report()
	if len(ra.Buckets) != len(rb.Buckets) {
		t.Fatalf("bucket counts differ: %d vs %d", len(ra.Buckets), len(rb.Buckets))
	}
	for i := range ra.Buckets {
		if ra.Buckets[i] != rb.Buckets[i] {
			t.Fatalf("bucket %d differs: %+v vs %+v", i, ra.Buckets[i], rb.Buckets[i])
		}
	}
	ra.Buckets, rb.Buckets = nil, nil
	if fmt.Sprintf("%+v", ra) != fmt.Sprintf("%+v", rb) {
		t.Fatalf("summaries differ:\n%+v\n%+v", ra, rb)
	}
}

// TestRegistryLatency covers register-on-first-use, kind collision, and
// registration order.
func TestRegistryLatency(t *testing.T) {
	r := NewRegistry()
	h1 := r.Latency("a")
	h2 := r.Latency("b")
	if r.Latency("a") != h1 {
		t.Fatal("second lookup returned a different histogram")
	}
	if lats := r.lats; len(lats) != 2 || lats[0] != h1 || lats[1] != h2 {
		t.Fatalf("registration order lost: %v", lats)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind collision did not panic")
		}
	}()
	r.Counter("a")
}
