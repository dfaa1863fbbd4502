// Package lmas is a library for distributed computing with load-managed
// active storage: a reproduction of Wickremesinghe, Chase & Vitter,
// "Distributed Computing with Load-Managed Active Storage" (HPDC 2002).
//
// The library provides:
//
//   - a deterministic, timing-accurate emulator for clusters of hosts and
//     Active Storage Units (ASUs) — processors colocated with disks —
//     connected by a SAN (packages sim, disk, netsim, cluster);
//   - a TPIE-style streaming data layer of fixed-size records in Streams,
//     Sets and Arrays of Packets on a pluggable Block Transfer Engine
//     (packages records, bte, container);
//   - the paper's functor programming model: bounded per-record
//     computations composed into dataflow pipelines whose stages are
//     replicated and placed on hosts or ASUs, with routing policies that
//     spread load across instances (packages functor, route, loadmgr);
//   - DSM-Sort, the configurable distribute/sort/merge sort whose α, β, γ
//     parameters shift work between hosts and ASUs, plus a conventional
//     host-only external mergesort baseline (packages dsmsort, extsort);
//   - the GIS applications of the paper: TerraFlow watershed analysis with
//     time-forward processing on an external priority queue, and
//     distributed R-trees in partitioned and striped organizations
//     (packages terraflow, pqueue, rtree);
//   - harnesses regenerating every figure and table of the paper's
//     evaluation (package experiments; see also cmd/asulab).
//
// This package re-exports the most commonly used entry points so that
// downstream code can depend on a single import; the full API lives in the
// internal packages and is documented there.
package lmas

import (
	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/dsmsort"
	"lmas/internal/experiments"
	"lmas/internal/extsort"
	"lmas/internal/functor"
	"lmas/internal/loadmgr"
	"lmas/internal/onepass"
	"lmas/internal/plot"
	"lmas/internal/records"
	"lmas/internal/route"
	"lmas/internal/rtree"
	"lmas/internal/sim"
	"lmas/internal/terraflow"
	"lmas/internal/trace"
)

// Emulated system.
type (
	// Params configures an emulated cluster (hosts, ASUs, power ratio
	// c, disks, interconnect, memory bounds, cost model).
	Params = cluster.Params
	// Cluster is a built emulated system of hosts and ASUs.
	Cluster = cluster.Cluster
	// Node is one emulated machine (host or ASU).
	Node = cluster.Node
	// CostModel assigns op counts to streaming primitives.
	CostModel = cluster.CostModel
	// Duration is a span of virtual time.
	Duration = sim.Duration
	// Time is a point in virtual time.
	Time = sim.Time
)

// DefaultParams returns the baseline emulated configuration.
func DefaultParams() Params { return cluster.DefaultParams() }

// Trace is a structured trace sink recording typed events from an emulated
// run in virtual time; export with WriteJSON (Perfetto/chrome://tracing) or
// WriteCSV.
type Trace = trace.Sink

// NewTrace creates an empty trace sink; hand it to NewObservedCluster as
// Observers.Trace. What watches a run is fixed when its cluster is built.
func NewTrace() *Trace { return trace.New() }

// Observers is what watches a run: telemetry registry, trace sink,
// critical-path profiler, run recorder and the two sampling intervals.
type Observers = cluster.Observers

// NewCluster builds a bare emulated system; it panics on invalid Params.
func NewCluster(p Params) *Cluster { return cluster.New(p) }

// NewObservedCluster is NewCluster with obs wired in before any proc exists.
func NewObservedCluster(p Params, obs Observers) *Cluster { return cluster.NewObserved(p, obs) }

// Data layer.
type (
	// Buffer is a dense array of fixed-size records.
	Buffer = records.Buffer
	// Key is a record's 4-byte sort key.
	Key = records.Key
	// Checksum is an order-independent multiset digest of records.
	Checksum = records.Checksum
	// KeyDist generates keys for synthetic workloads.
	KeyDist = records.KeyDist
	// Uniform draws keys uniformly.
	Uniform = records.Uniform
	// Exponential draws low-skewed keys (the Figure 10 skew).
	Exponential = records.Exponential
	// Packet is a group of records processed as a whole.
	Packet = container.Packet
	// Set is an unordered record collection.
	Set = container.Set
	// Stream is an ordered record collection.
	Stream = container.Stream
	// Array is a random-access record collection.
	Array = container.Array
)

// Programming model.
type (
	// Functor is the per-record streaming primitive with bounded cost.
	Functor = functor.Functor
	// Kernel is a packet-granularity verified computation.
	Kernel = functor.Kernel
	// Pipeline composes stages into a dataflow program on a cluster.
	Pipeline = functor.Pipeline
	// Stage is a replicated, placed computation step.
	Stage = functor.Stage
	// RoutePolicy selects destination instances for packets.
	RoutePolicy = route.Policy
)

// NewPipeline creates an empty dataflow pipeline on cl.
func NewPipeline(cl *Cluster) *Pipeline { return functor.NewPipeline(cl) }

// NewSR returns the simple-randomization routing policy.
func NewSR(seed int64) RoutePolicy { return route.NewSR(seed) }

// DSM-Sort and baselines.
type (
	// SortConfig parameterizes DSM-Sort (α, β, γ, placement, routing).
	SortConfig = dsmsort.Config
	// SortInput is a record set striped across the ASUs.
	SortInput = dsmsort.Input
	// SortResult reports a completed two-pass DSM-Sort.
	SortResult = dsmsort.Result
	// ExtsortConfig parameterizes the host-only external mergesort.
	ExtsortConfig = extsort.Config
)

// Placements of DSM-Sort computation.
const (
	// Active places distribute/collect functors on the ASUs.
	Active = dsmsort.Active
	// Conventional keeps all computation on the hosts.
	Conventional = dsmsort.Conventional
)

// MakeInput generates and loads a sort input striped across cl's ASUs.
func MakeInput(cl *Cluster, n int, dist KeyDist, seed int64, packetRecords int) *SortInput {
	return dsmsort.MakeInput(cl, n, dist, seed, packetRecords)
}

// Sort runs the full two-pass DSM-Sort and validates the output.
func Sort(cl *Cluster, cfg SortConfig, in *SortInput) (*SortResult, error) {
	return dsmsort.Sort(cl, cfg, in)
}

// ChooseAlpha picks the distribute order with the best predicted speedup —
// the load manager's adaptive configuration choice.
func ChooseAlpha(p Params, candidates []int, beta int) int {
	return loadmgr.ChooseAlpha(p, candidates, beta)
}

// Offloadable primitives and related-work baselines.
type (
	// FilterFunctor drops records at the ASUs ("filtering... directly at
	// the ASUs can reduce data movement").
	FilterFunctor = functor.Filter
	// AggregateKernel folds records into per-bucket summaries.
	AggregateKernel = functor.Aggregate
	// OnePassConfig parameterizes the NOW-Sort-style one-pass sort.
	OnePassConfig = onepass.Config
)

// OnePassSort runs the related-work one-pass cluster sort; it fails with
// onepass.ErrTooLarge past the sort nodes' aggregate memory.
func OnePassSort(cl *Cluster, cfg OnePassConfig, in *SortInput) (*onepass.Result, error) {
	return onepass.Sort(cl, cfg, in)
}

// Applications.
type (
	// Terrain is a raster elevation grid.
	Terrain = terraflow.Grid
	// TerraOptions configures a TerraFlow watershed run.
	TerraOptions = terraflow.Options
	// TerraResult reports watershed labels and phase times.
	TerraResult = terraflow.Result
	// RTree is a bulk-loaded spatial index.
	RTree = rtree.Tree
	// DistributedRTree is an R-tree deployed across hosts and ASUs.
	DistributedRTree = rtree.Distributed
	// Rect is an axis-aligned query rectangle.
	Rect = rtree.Rect
)

// Experiment harnesses (the paper's evaluation).
type (
	// Fig10Options / Fig10Result reproduce Figure 10.
	Fig10Options = experiments.Fig10Options
	Fig10Result  = experiments.Fig10Result
	// Table is a rendered results table.
	Table = plot.Table
)

// RunFig10 reproduces Figure 10 (utilization under skew, static vs SR).
func RunFig10(opt Fig10Options) (*Fig10Result, error) { return experiments.RunFig10(opt) }

// DefaultFig10Options mirrors the paper's Figure 10 setup.
func DefaultFig10Options() Fig10Options { return experiments.DefaultFig10Options() }
