package functor

import (
	"encoding/binary"
	"fmt"

	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/records"
)

// Aggregate is the reduction functor of the active-storage canon
// ("filtering and aggregation operations performed directly at the ASUs
// can reduce data movement", Section 2): it folds every input record into
// per-bucket running aggregates — count, key sum, min and max — and emits
// one small summary record per bucket at end of input. Offloaded to ASUs,
// a scan over terabytes returns kilobytes.
//
// Summary records are AggRecordSize bytes; decode them with DecodeAgg.
// State is bounded by the bucket count, keeping the functor ASU-eligible.
type Aggregate struct {
	Splitters []records.Key

	counts []uint64
	sums   []uint64
	mins   []records.Key
	maxs   []records.Key
}

// AggRecordSize is the wire size of one summary record: bucket key (4 B,
// so summaries sort by bucket), count (8), sum (8), min (4), max (4),
// padding to a record-layer-friendly 32.
const AggRecordSize = 32

// NewAggregate builds a per-bucket aggregator over alpha equal-width key
// ranges.
func NewAggregate(alpha int) *Aggregate {
	return &Aggregate{Splitters: records.Splitters(alpha)}
}

func (a *Aggregate) Name() string { return fmt.Sprintf("aggregate(%d)", len(a.Splitters)+1) }

// Compares: one bucket search per record plus the fold.
func (a *Aggregate) Compares(pk container.Packet) float64 {
	return cluster.Log2(len(a.Splitters)+1) + 2
}

func (a *Aggregate) ensure() {
	if a.counts == nil {
		n := len(a.Splitters) + 1
		a.counts = make([]uint64, n)
		a.sums = make([]uint64, n)
		a.mins = make([]records.Key, n)
		a.maxs = make([]records.Key, n)
		for i := range a.mins {
			a.mins[i] = records.MaxKey
		}
	}
}

func (a *Aggregate) Process(ctx *Ctx, pk container.Packet, emit Emit) {
	a.ensure()
	n := pk.Len()
	for i := 0; i < n; i++ {
		k := pk.Buf.Key(i)
		b := records.BucketOf(k, a.Splitters)
		a.counts[b]++
		a.sums[b] += uint64(k)
		if k < a.mins[b] {
			a.mins[b] = k
		}
		if k > a.maxs[b] {
			a.maxs[b] = k
		}
	}
	pk.Release() // only keys were read; the input is consumed
}

// Flush emits one summary record per non-empty bucket.
func (a *Aggregate) Flush(ctx *Ctx, emit Emit) {
	a.ensure()
	for b, c := range a.counts {
		if c == 0 {
			continue
		}
		buf := records.NewBuffer(1, AggRecordSize)
		rec := buf.Record(0)
		binary.LittleEndian.PutUint32(rec[0:], uint32(b))
		binary.LittleEndian.PutUint64(rec[4:], c)
		binary.LittleEndian.PutUint64(rec[12:], a.sums[b])
		binary.LittleEndian.PutUint32(rec[20:], uint32(a.mins[b]))
		binary.LittleEndian.PutUint32(rec[24:], uint32(a.maxs[b]))
		emit(container.Packet{Buf: buf, Bucket: b, Run: -1})
	}
}

// ASUEligible: aggregation state is bounded by the bucket count.
func (a *Aggregate) ASUEligible() {}

var _ Kernel = (*Aggregate)(nil)

// AggSummary is a decoded per-bucket aggregate.
type AggSummary struct {
	Bucket   int
	Count    uint64
	Sum      uint64
	Min, Max records.Key
}

// DecodeAgg parses a summary record produced by Aggregate.
func DecodeAgg(rec []byte) AggSummary {
	return AggSummary{
		Bucket: int(binary.LittleEndian.Uint32(rec[0:])),
		Count:  binary.LittleEndian.Uint64(rec[4:]),
		Sum:    binary.LittleEndian.Uint64(rec[12:]),
		Min:    records.Key(binary.LittleEndian.Uint32(rec[20:])),
		Max:    records.Key(binary.LittleEndian.Uint32(rec[24:])),
	}
}

// MergeAgg combines summaries of the same bucket from replicated
// aggregator instances (the operation is commutative and associative,
// which is what permits replication across ASUs).
func MergeAgg(a, b AggSummary) AggSummary {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	out := AggSummary{Bucket: a.Bucket, Count: a.Count + b.Count, Sum: a.Sum + b.Sum, Min: a.Min, Max: a.Max}
	if b.Min < out.Min {
		out.Min = b.Min
	}
	if b.Max > out.Max {
		out.Max = b.Max
	}
	return out
}
