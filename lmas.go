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
// This package re-exports the entry points its Examples and the README's
// quickstart use; the full API lives in the internal packages and is
// documented there.
package lmas

import (
	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/experiments"
	"lmas/internal/functor"
	"lmas/internal/loadmgr"
	"lmas/internal/onepass"
	"lmas/internal/records"
	"lmas/internal/rtree"
)

// DefaultParams returns the baseline emulated configuration: hosts, ASUs,
// power ratio c, disks, interconnect, memory bounds and cost model.
func DefaultParams() cluster.Params { return cluster.DefaultParams() }

// NewCluster builds a bare emulated system; it panics on invalid Params.
func NewCluster(p cluster.Params) *cluster.Cluster { return cluster.New(p) }

// Key distributions for synthetic workloads.
type (
	// Uniform draws keys uniformly.
	Uniform = records.Uniform
	// Exponential draws low-skewed keys (the Figure 10 skew).
	Exponential = records.Exponential
)

// NewPipeline creates an empty dataflow pipeline on cl.
func NewPipeline(cl *cluster.Cluster) *functor.Pipeline { return functor.NewPipeline(cl) }

// DSM-Sort and the one-pass baseline.
type (
	// SortConfig parameterizes DSM-Sort (α, β, γ, placement, routing).
	SortConfig = dsmsort.Config
	// SortResult reports a completed two-pass DSM-Sort.
	SortResult = dsmsort.Result
	// OnePassConfig parameterizes the NOW-Sort-style one-pass sort.
	OnePassConfig = onepass.Config
)

// Placements of DSM-Sort computation.
const (
	// Active places distribute/collect functors on the ASUs.
	Active = dsmsort.Active
	// Conventional keeps all computation on the hosts.
	Conventional = dsmsort.Conventional
)

// MakeInput generates and loads a sort input striped across cl's ASUs.
func MakeInput(cl *cluster.Cluster, n int, dist records.KeyDist, seed int64, packetRecords int) *dsmsort.Input {
	return dsmsort.MakeInput(cl, n, dist, seed, packetRecords)
}

// Sort runs the full two-pass DSM-Sort and validates the output.
func Sort(cl *cluster.Cluster, cfg SortConfig, in *dsmsort.Input) (*SortResult, error) {
	return dsmsort.Sort(cl, cfg, in)
}

// ChooseAlpha picks the distribute order with the best predicted speedup —
// the load manager's adaptive configuration choice.
func ChooseAlpha(p cluster.Params, candidates []int, beta int) int {
	return loadmgr.ChooseAlpha(p, candidates, beta)
}

// OnePassSort runs the related-work one-pass cluster sort; it fails with
// onepass.ErrTooLarge past the sort nodes' aggregate memory.
func OnePassSort(cl *cluster.Cluster, cfg OnePassConfig, in *dsmsort.Input) (*onepass.Result, error) {
	return onepass.Sort(cl, cfg, in)
}

// The R-tree application.
type (
	// DistributedRTree is an R-tree deployed across hosts and ASUs.
	DistributedRTree = rtree.Distributed
	// Rect is an axis-aligned query rectangle.
	Rect = rtree.Rect
)

// RunFig10 reproduces Figure 10 (utilization under skew, static vs SR).
func RunFig10(opt experiments.Fig10Options) (*experiments.Fig10Result, error) {
	return experiments.RunFig10(opt)
}

// DefaultFig10Options mirrors the paper's Figure 10 setup.
func DefaultFig10Options() experiments.Fig10Options { return experiments.DefaultFig10Options() }
