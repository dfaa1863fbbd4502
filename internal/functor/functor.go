// Package functor implements the paper's data-driven programming model
// (Section 3.1): computations are decomposed into primitive processing
// steps — functors — "which apply specific functions to streams of records
// passing through them. Functors may have multiple inputs and outputs, and
// are composed to build complete programs that process data as it moves
// from stored input to output, possibly in multiple passes."
//
// Two levels of computation are supported:
//
//   - Functor: the paper's per-record streaming primitive, with bounded
//     per-record cost (declared as comparisons per record) and bounded
//     state. ASU-eligible computation is expressed at this level.
//   - Kernel: a packet-granularity "prepackaged, prevalidated kernel
//     primitive" such as sorting, permitted "for useful primitives" with
//     verified behaviour (Section 3.1). Functors are adapted into kernels
//     for execution.
//
// Kernels run inside stage instances placed on cluster nodes; instances of
// a replicated stage receive packets through a routing policy, which is how
// the system spreads load "across instantiations of a given functor". The
// runtime charges every instance's node for its declared computation cost,
// so emulated time reflects the configured placement.
package functor

import (
	"fmt"

	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/records"
	"lmas/internal/sim"
)

// Emit passes a produced packet downstream.
type Emit func(pk container.Packet)

// Ctx is the execution context a kernel runs in.
type Ctx struct {
	Cluster  *cluster.Cluster
	Node     *cluster.Node
	Proc     *sim.Proc
	Instance *Instance
}

// Kernel is a packet-level computation with a declared cost. The runtime
// charges (Compares(pk)*CompareOps + touch) ops per record on the
// instance's node before invoking Process; "known bounds on functor
// computation cost per unit of I/O facilitate resource scheduling
// decisions" (Section 3.3). Kernels that perform container I/O through ctx
// additionally incur the storage costs of the node that owns the container.
type Kernel interface {
	// Name identifies the kernel.
	Name() string
	// Compares reports the declared key comparisons per record of pk.
	Compares(pk container.Packet) float64
	// Process consumes pk, emitting zero or more packets. Consuming means
	// taking responsibility for pk's buffer: re-emit the packet, move its
	// buffer into a container (ownership transfers to the engine), or call
	// pk.Release() — a no-op for unowned packets, so kernels may release
	// unconditionally once they are done reading.
	Process(ctx *Ctx, pk container.Packet, emit Emit)
	// Flush emits buffered state after the last input packet.
	Flush(ctx *Ctx, emit Emit)
}

// ASUEligible marks kernels that may execute on Active Storage Units.
// Section 3.1: ASU functors "are either prepackaged, prevalidated kernel
// primitives or short code sequences whose execution behavior is statically
// determinable. These constraints create a basis for isolating ASUs and
// applications from damage by competing functors." The pipeline refuses to
// place unmarked kernels on ASUs (Pipeline.Run returns an error before
// spawning anything), so arbitrary host-side computation cannot wander onto
// shared storage nodes. All kernels in this package except
// FusedDistributeSort (a host-only baseline with unbounded fused state)
// carry the mark; per-record functors adapted with Adapt are eligible by
// construction — the adapter bounds their state.
type ASUEligible interface {
	// ASUEligible declares the kernel validated for ASU execution.
	ASUEligible()
}

// Functor is the paper's per-record primitive: a passive entity whose
// computation occurs as a side effect of data access, performing "bounded
// per-record processing with bounded internal state". Records are emitted
// on numbered output ports; the adapter packs each port's records into
// packets whose Bucket is the port number.
type Functor interface {
	// Name identifies the functor.
	Name() string
	// Ports reports the number of output ports.
	Ports() int
	// ComparesPerRecord declares the bounded per-record comparison cost.
	ComparesPerRecord() float64
	// Process consumes one record. The rec slice is only valid during
	// the call; implementations must copy it to retain it.
	Process(rec []byte, emit func(port int, rec []byte))
	// Flush emits any buffered records at end of input.
	Flush(emit func(port int, rec []byte))
}

// Adapt wraps a per-record functor as a packet kernel. Output records are
// staged per port and emitted in packets of up to packetRecords records.
// Total staging across all ports is bounded ("their per-record computation
// demand and total memory usage are bounded, facilitating load management
// and resource provisioning"): when the bound is reached, the fullest
// port's partial packet is emitted, so high-fan-out functors keep data
// flowing instead of hoarding it until end of input.
func Adapt(f Functor, recSize, packetRecords int) Kernel {
	if packetRecords < 1 {
		panic("functor: packetRecords must be >= 1")
	}
	budget := 4 * packetRecords
	if budget < 2048 {
		budget = 2048
	}
	return &recordAdapter{f: f, recSize: recSize, cap: packetRecords, budget: budget}
}

type recordAdapter struct {
	f       Functor
	recSize int
	cap     int
	budget  int // max records staged across all ports
	staged  int
	staging []records.Buffer // per port
	fill    []int
}

func (a *recordAdapter) Name() string                         { return a.f.Name() }
func (a *recordAdapter) Compares(pk container.Packet) float64 { return a.f.ComparesPerRecord() }

// ASUEligible: adapted per-record functors have bounded cost by contract
// and bounded state by the adapter's staging budget.
func (a *recordAdapter) ASUEligible() {}

func (a *recordAdapter) stage(port int, rec []byte, emit Emit) {
	if a.staging == nil {
		a.staging = make([]records.Buffer, a.f.Ports())
		a.fill = make([]int, a.f.Ports())
	}
	if port < 0 || port >= len(a.staging) {
		panic(fmt.Sprintf("functor %s: emit on port %d of %d", a.f.Name(), port, len(a.staging)))
	}
	if a.staging[port].Len() == 0 {
		a.staging[port] = records.NewPooled(a.cap, a.recSize)
	}
	copy(a.staging[port].Record(a.fill[port]), rec)
	a.fill[port]++
	a.staged++
	if a.fill[port] == a.cap {
		a.flushPort(port, emit)
		return
	}
	if a.staged >= a.budget {
		// Buffer bound reached: relieve pressure by shipping the
		// fullest port's partial packet.
		fullest := 0
		for p := 1; p < len(a.fill); p++ {
			if a.fill[p] > a.fill[fullest] {
				fullest = p
			}
		}
		a.flushPort(fullest, emit)
	}
}

func (a *recordAdapter) Process(ctx *Ctx, pk container.Packet, emit Emit) {
	out := func(port int, rec []byte) { a.stage(port, rec, emit) }
	n := pk.Len()
	for i := 0; i < n; i++ {
		a.f.Process(pk.Buf.Record(i), out)
	}
	pk.Release() // records were copied into staging; the input is consumed
}

func (a *recordAdapter) Flush(ctx *Ctx, emit Emit) {
	a.f.Flush(func(port int, rec []byte) { a.stage(port, rec, emit) })
	for port := range a.staging {
		a.flushPort(port, emit)
	}
}

func (a *recordAdapter) flushPort(port int, emit Emit) {
	if a.fill[port] == 0 {
		return
	}
	// The emitted packet owns the pooled staging buffer (a length-prefix
	// slice keeps the full pool capacity, so release recycles it whole).
	pk := container.Packet{Buf: a.staging[port].Slice(0, a.fill[port]), Bucket: port, Run: -1, Owned: true}
	a.staged -= a.fill[port]
	a.staging[port] = records.Buffer{}
	a.fill[port] = 0
	emit(pk)
}
