package telemetry

import (
	"math"
	"math/bits"

	"lmas/internal/sim"
)

// LatencyHistogram counts virtual-time latencies (nanoseconds) into a fixed
// logarithmic bucket layout: each power-of-two octave is split into
// latSubBuckets linear sub-buckets, so relative quantile error is bounded by
// 1/latSubBuckets (~3%) at every magnitude from nanoseconds to hours.
//
// Every operation here is pure integer arithmetic on a layout that is a
// function of nothing but the value, so two runs that observe the same
// latencies — in any order — produce byte-identical reports. That is the
// property every latency section (functor stages, open-loop jobs, R-tree
// queries) relies on: the quantiles exported in a RunReport are deterministic
// bucket upper bounds, clamped to the observed min/max, never interpolated
// floats.
//
// A nil *LatencyHistogram is the valid "telemetry off" instrument: every
// method no-ops (or returns zero), matching the other instruments.
type LatencyHistogram struct {
	name     string
	counts   []int64 // grown lazily to the highest observed bucket + 1
	count    int64
	sum      int64
	min, max int64
}

const (
	// latSubBucketBits fixes the sub-bucket resolution: 2^5 = 32 linear
	// sub-buckets per power-of-two octave.
	latSubBucketBits = 5
	latSubBuckets    = 1 << latSubBucketBits
)

// latBucketIdx maps a non-negative latency in nanoseconds onto its bucket
// index. Values below latSubBuckets are exact (one bucket per nanosecond);
// above that, the value's octave selects a group of latSubBuckets linear
// sub-buckets.
func latBucketIdx(v int64) int {
	if v < latSubBuckets {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= latSubBucketBits
	sub := int(v>>(uint(exp)-latSubBucketBits)) - latSubBuckets
	return (exp-latSubBucketBits)*latSubBuckets + latSubBuckets + sub
}

// latBucketUpper reports the largest value mapping to bucket idx — the
// deterministic quantile estimate for ranks landing in that bucket.
func latBucketUpper(idx int) int64 {
	if idx < latSubBuckets {
		return int64(idx)
	}
	exp := idx/latSubBuckets - 1 + latSubBucketBits
	sub := idx % latSubBuckets
	return (int64(latSubBuckets+sub+1) << (uint(exp) - latSubBucketBits)) - 1
}

// Observe records one latency. Negative durations clamp to zero (virtual
// time never runs backwards; the clamp keeps a buggy caller deterministic
// rather than panicking mid-run). No-op on a nil histogram.
func (h *LatencyHistogram) Observe(d sim.Duration) {
	if h == nil {
		return
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	idx := latBucketIdx(v)
	if idx >= len(h.counts) {
		// append amortises the growth: a stage's maximum creeps up a bucket
		// at a time, and an exact-size regrow would copy on every new one.
		h.counts = append(h.counts, make([]int64, idx+1-len(h.counts))...)
	}
	h.counts[idx]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if h.count == 1 || v > h.max {
		h.max = v
	}
}

// Name reports the histogram's registered name.
func (h *LatencyHistogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Count reports the number of observations (zero on nil).
func (h *LatencyHistogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum reports the total of all observations in nanoseconds.
func (h *LatencyHistogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min reports the smallest observation in nanoseconds (zero when empty).
func (h *LatencyHistogram) Min() int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest observation in nanoseconds (zero when empty).
func (h *LatencyHistogram) Max() int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile reports the q'th quantile (0..1) in nanoseconds: the upper bound
// of the bucket containing the nearest-rank observation, clamped to the
// observed min/max. Zero for an empty histogram.
func (h *LatencyHistogram) Quantile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			v := latBucketUpper(idx)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Report snapshots the histogram into its report form: summary quantiles
// plus the sparse list of nonzero buckets, all integer nanoseconds.
func (h *LatencyHistogram) Report() LatencyReport {
	rep := LatencyReport{
		Name:   h.Name(),
		Count:  h.Count(),
		SumNs:  h.Sum(),
		MinNs:  h.Min(),
		MaxNs:  h.Max(),
		P50Ns:  h.Quantile(0.50),
		P90Ns:  h.Quantile(0.90),
		P99Ns:  h.Quantile(0.99),
		P999Ns: h.Quantile(0.999),
	}
	if h == nil {
		return rep
	}
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		rep.Buckets = append(rep.Buckets, LatencyBucket{UpperNs: latBucketUpper(idx), Count: c})
	}
	return rep
}

// Latency returns the latency histogram named name, creating it on first
// use. Returns nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Latency(name string) *LatencyHistogram {
	if r == nil {
		return nil
	}
	if v, ok := r.byName[name]; ok {
		h, ok := v.(*LatencyHistogram)
		if !ok {
			panic("telemetry: " + name + " already registered as another instrument kind")
		}
		return h
	}
	h := &LatencyHistogram{name: name}
	r.byName[name] = h
	r.lats = append(r.lats, h)
	return h
}
