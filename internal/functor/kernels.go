package functor

import (
	"fmt"

	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/records"
)

// Distribute is the α-way distribute functor of DSM-Sort step 1: it routes
// each record to one of α output ports by binary search over key-range
// splitters, costing ceil-ish cluster.Log2(α) compares per record. It is an
// ASU-eligible functor: bounded per-record cost, bounded state (the
// splitters plus per-port staging).
type Distribute struct {
	Splitters []records.Key
}

// NewDistribute builds an α-way distribute over equal-width key ranges.
func NewDistribute(alpha int) *Distribute {
	return &Distribute{Splitters: records.Splitters(alpha)}
}

func (d *Distribute) Name() string { return fmt.Sprintf("distribute(%d)", len(d.Splitters)+1) }
func (d *Distribute) Ports() int   { return len(d.Splitters) + 1 }
func (d *Distribute) ComparesPerRecord() float64 {
	return cluster.Log2(len(d.Splitters) + 1)
}

func (d *Distribute) Process(rec []byte, emit func(port int, rec []byte)) {
	emit(records.BucketOf(records.KeyOf(rec), d.Splitters), rec)
}

func (d *Distribute) Flush(emit func(port int, rec []byte)) {}

var _ Functor = (*Distribute)(nil)

// Filter passes through records whose key satisfies Keep; a canonical
// ASU-side reduction ("filtering and aggregation operations performed
// directly at the ASUs can reduce data movement across the interconnect").
type Filter struct {
	Keep func(k records.Key) bool
}

func (f *Filter) Name() string               { return "filter" }
func (f *Filter) Ports() int                 { return 1 }
func (f *Filter) ComparesPerRecord() float64 { return 1 }
func (f *Filter) Process(rec []byte, emit func(port int, rec []byte)) {
	if f.Keep(records.KeyOf(rec)) {
		emit(0, rec)
	}
}
func (f *Filter) Flush(emit func(port int, rec []byte)) {}

var _ Functor = (*Filter)(nil)

// BlockSort is the "verified computation kernel" forming sorted runs: it
// accumulates β records per bucket, sorts each full block with cluster.Log2(β)
// compares per record, and emits it as a packet marked sorted — the packet
// mechanism of Figure 4 ("a sort functor which sorts groups of records and
// uses packets to preserve the local order of sorted records").
type BlockSort struct {
	Beta    int // records per sorted run
	RecSize int

	// Per-bucket partial blocks, indexed bucket+1 so the unbucketed
	// stream (Bucket == -1) lands at slot 0; grown on demand. Slot order
	// is ascending bucket order, which keeps Flush deterministic.
	blocks []records.Buffer
	fill   []int
	runSeq int
}

// NewBlockSort builds a run-formation kernel with run length beta.
func NewBlockSort(beta, recSize int) *BlockSort {
	if beta < 1 {
		panic("functor: beta must be >= 1")
	}
	return &BlockSort{Beta: beta, RecSize: recSize}
}

func (b *BlockSort) Name() string { return fmt.Sprintf("blocksort(%d)", b.Beta) }

func (b *BlockSort) Compares(pk container.Packet) float64 { return cluster.Log2(b.Beta) }

func (b *BlockSort) Process(ctx *Ctx, pk container.Packet, emit Emit) {
	n := pk.Len()
	idx := pk.Bucket + 1
	if idx < 0 {
		panic(fmt.Sprintf("functor: blocksort bucket %d < -1", pk.Bucket))
	}
	for idx >= len(b.blocks) {
		b.blocks = append(b.blocks, records.Buffer{})
		b.fill = append(b.fill, 0)
	}
	for i := 0; i < n; i++ {
		if b.blocks[idx].Len() == 0 {
			b.blocks[idx] = records.NewPooled(b.Beta, b.RecSize)
		}
		copy(b.blocks[idx].Record(b.fill[idx]), pk.Buf.Record(i))
		b.fill[idx]++
		if b.fill[idx] == b.Beta {
			b.emitRun(idx, emit)
		}
	}
	pk.Release() // input records now live in the run blocks
}

func (b *BlockSort) Flush(ctx *Ctx, emit Emit) {
	// Emit remaining partial blocks in ascending slot (= bucket) order
	// for determinism, matching the sorted-bucket order used before the
	// dense-slice representation.
	for idx := range b.blocks {
		if b.fill[idx] > 0 {
			b.emitRun(idx, emit)
		}
	}
}

func (b *BlockSort) emitRun(idx int, emit Emit) {
	buf := b.blocks[idx].Slice(0, b.fill[idx])
	buf.Sort()
	b.blocks[idx] = records.Buffer{}
	b.fill[idx] = 0
	b.runSeq++
	// The run packet owns its pooled block (length-prefix slices keep the
	// full pool capacity).
	emit(container.Packet{Buf: buf, Sorted: true, Bucket: idx - 1, Run: b.runSeq, Owned: true})
}

// ASUEligible: BlockSort is a prevalidated kernel primitive ("More complex
// read/modify/write operations may be permitted in common, verified
// computation kernels, e.g., for useful primitives such as sorting").
func (b *BlockSort) ASUEligible() {}

var _ Kernel = (*BlockSort)(nil)

// Sink is a terminal kernel that hands every packet to a user function —
// typically one that appends to a container on the instance's node,
// incurring that node's storage costs. Fn consumes the packet: appending
// its buffer to a container transfers ownership to the engine; sinks that
// only inspect the packet must Release it (or retain it and release later).
type Sink struct {
	Label string
	Fn    func(ctx *Ctx, pk container.Packet)
	// ExtraCompares adds declared per-record cost (0 for raw block
	// writes on conventional storage; collectors doing packet
	// reassembly leave it 0 too and rely on the touch charge).
	ExtraCompares float64
}

func (s *Sink) Name() string                         { return "sink:" + s.Label }
func (s *Sink) Compares(pk container.Packet) float64 { return s.ExtraCompares }
func (s *Sink) Process(ctx *Ctx, pk container.Packet, emit Emit) {
	s.Fn(ctx, pk)
}
func (s *Sink) Flush(ctx *Ctx, emit Emit) {}

// ASUEligible: sinks only move packets into local storage.
func (s *Sink) ASUEligible() {}

var _ Kernel = (*Sink)(nil)

// Passthrough forwards packets unchanged at a declared cost; useful for
// modelling pure forwarding hops and in tests.
type Passthrough struct {
	CostCompares float64
}

func (p *Passthrough) Name() string                         { return "passthrough" }
func (p *Passthrough) Compares(pk container.Packet) float64 { return p.CostCompares }
func (p *Passthrough) Process(ctx *Ctx, pk container.Packet, emit Emit) {
	emit(pk)
}
func (p *Passthrough) Flush(ctx *Ctx, emit Emit) {}

// ASUEligible: passthrough performs no computation beyond its declared
// cost.
func (p *Passthrough) ASUEligible() {}

var _ Kernel = (*Passthrough)(nil)

// FusedDistributeSort chains an α-way distribute directly into run
// formation inside a single host stage: the conventional-storage baseline,
// where all computation happens on the host in one pass over the data. Its
// declared cost is cluster.Log2(α) + cluster.Log2(β) compares per record, the sum of the
// two stages it fuses.
type FusedDistributeSort struct {
	dist *Distribute
	sort *BlockSort
}

// NewFusedDistributeSort builds the baseline host kernel.
func NewFusedDistributeSort(alpha, beta, recSize int) *FusedDistributeSort {
	return &FusedDistributeSort{dist: NewDistribute(alpha), sort: NewBlockSort(beta, recSize)}
}

func (f *FusedDistributeSort) Name() string { return "fused-distribute-sort" }

func (f *FusedDistributeSort) Compares(pk container.Packet) float64 {
	return f.dist.ComparesPerRecord() + f.sort.Compares(pk)
}

func (f *FusedDistributeSort) Process(ctx *Ctx, pk container.Packet, emit Emit) {
	n := pk.Len()
	for i := 0; i < n; i++ {
		rec := pk.Buf.Record(i)
		bucket := records.BucketOf(records.KeyOf(rec), f.dist.Splitters)
		// Sub-packets alias pk's buffer and are unowned; BlockSort's
		// release of them is a no-op.
		f.sort.Process(ctx, container.Packet{Buf: pk.Buf.Slice(i, i+1), Bucket: bucket, Run: -1}, emit)
	}
	pk.Release()
}

func (f *FusedDistributeSort) Flush(ctx *Ctx, emit Emit) { f.sort.Flush(ctx, emit) }

var _ Kernel = (*FusedDistributeSort)(nil)
