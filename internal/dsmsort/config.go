// Package dsmsort implements DSM-Sort, the paper's "hybrid distribute/merge
// sort program... for active storage systems using the data-driven functor
// model" (Section 4.3).
//
// The program combines distribute, sort, and merge functors in a
// configurable way:
//
//  1. an α-way distribute partitions the data set into α subsets that can
//     be sorted independently (ASU buffer space restricts α);
//  2. each block of β records in each subset is sorted with a fast internal
//     sort, forming N/β sorted runs (memory size limits β);
//  3. a γ-way merge forms the sorted result, divided between hosts and ASUs
//     so that γ1·γ2 = γ.
//
// Counting log2(parameter) compares per key, the total work is
// n·log(α) + n·log(β) + n·log(γ) = n·log(αβγ) = n·log n when αβγ = n.
// Choosing the parameters "allows us to balance computation at ASUs and
// hosts, as well as conform to memory constraints on the ASUs".
package dsmsort

import (
	"fmt"

	"lmas/internal/cluster"
	"lmas/internal/route"
)

// Placement selects where DSM-Sort's pass-1 (run formation) computation
// executes. It does not reach the merge pass: MergePass runs its γ2 pre-merge
// on the ASUs and its γ1 merge on the hosts under every placement.
type Placement int

const (
	// Active places distribute functors on the ASUs (the active-storage
	// configuration of Figure 9).
	Active Placement = iota
	// Conventional places all of pass 1 on the hosts; storage units only
	// stream raw blocks to them (the Figure 9 baseline: "conventional
	// storage units with no integrated processing"). Pass 2's γ2 pre-merge
	// still runs on the ASUs, as under every placement.
	Conventional
	// Hybrid replicates the distribute functor on both the ASUs and the
	// hosts; each reader routes packets to its local ASU instance or a
	// host instance by queue backlog, effectively migrating computation
	// toward whichever side has spare capacity ("load management
	// may... migrate functors between host nodes and ASUs", §3.3).
	Hybrid
)

func (p Placement) String() string {
	switch p {
	case Active:
		return "active"
	case Conventional:
		return "conventional"
	default:
		return "hybrid"
	}
}

// Config parameterizes one DSM-Sort execution.
type Config struct {
	// Alpha is the distribute order (number of subsets).
	Alpha int
	// Beta is the sorted-run length in records.
	Beta int
	// Gamma2 is the ASU-side merge fan-in for the merge pass; the
	// host-side fan-in γ1 is the number of ASU streams per bucket
	// (one per ASU holding runs), so γ = γ1·γ2.
	Gamma2 int
	// PacketRecords is the packet size used on the interconnect between
	// distribute and sort stages ("the size of the packet may be limited
	// by a memory bound on the ASU-resident functor").
	PacketRecords int
	// Placement selects active, conventional or hybrid execution of
	// pass 1.
	Placement Placement
	// SortPolicy routes subset packets across host sorter instances.
	// Static{Buckets: Alpha} is the non-load-managed configuration of
	// Figure 10; SR is the load-managed one. Nil means Static.
	SortPolicy route.Policy
	// Seed feeds all randomized decisions (SR routing, sampling).
	Seed int64
}

// Validate checks cfg against the cluster's resource bounds: α and γ are
// restricted by ASU buffer space, β by host memory (Section 4.3).
func (c Config) Validate(p cluster.Params) error {
	switch {
	case c.Alpha < 1:
		return fmt.Errorf("dsmsort: alpha must be >= 1, have %d", c.Alpha)
	case c.Beta < 1:
		return fmt.Errorf("dsmsort: beta must be >= 1, have %d", c.Beta)
	case c.Gamma2 < 1:
		return fmt.Errorf("dsmsort: gamma2 must be >= 1, have %d", c.Gamma2)
	case c.PacketRecords < 1:
		return fmt.Errorf("dsmsort: packet size must be >= 1, have %d", c.PacketRecords)
	}
	// ASU buffer bound on α: the distribute functor stages one packet
	// per subset.
	if need := c.Alpha * c.PacketRecords; need > p.ASUMemRecords {
		return fmt.Errorf("dsmsort: alpha %d x packet %d = %d records exceeds ASU buffer of %d",
			c.Alpha, c.PacketRecords, need, p.ASUMemRecords)
	}
	// Host memory bound on β: one run per subset may be in formation.
	if c.Beta > p.HostMemRecords {
		return fmt.Errorf("dsmsort: beta %d exceeds host memory of %d records", c.Beta, p.HostMemRecords)
	}
	// ASU buffer bound on γ2: the merge holds one packet per input run.
	if need := c.Gamma2 * c.PacketRecords; need > p.ASUMemRecords {
		return fmt.Errorf("dsmsort: gamma2 %d x packet %d = %d records exceeds ASU buffer of %d",
			c.Gamma2, c.PacketRecords, need, p.ASUMemRecords)
	}
	return nil
}

// TotalCompares reports the work equation's predicted comparison count for
// sorting n records: n·(log2 α + log2 β + log2 γ1 + log2 γ2).
func (c Config) TotalCompares(n, gamma1 int) float64 {
	return float64(n) * (cluster.Log2(c.Alpha) + cluster.Log2(c.Beta) + cluster.Log2(gamma1) + cluster.Log2(c.Gamma2))
}

// Gamma1 reports the host-side merge fan-in for a cluster with d ASUs: one
// stream per ASU per bucket.
func (c Config) Gamma1(d int) int { return d }
