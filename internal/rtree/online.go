package rtree

import (
	"fmt"
	"sort"

	"lmas/internal/cluster"
	"lmas/internal/sim"
)

// Online maintenance (Section 4.2): "For online data structures, the
// maintenance work (for example, rebalancing) at the lower levels can run
// as a batch job running on the ASUs, while the host layer maintains the
// upper levels online."
//
// Insert appends to a host-side buffer per group (the online upper layer:
// the host extends group MBRs immediately, so queries stay correct), and
// queries scan the pending buffers until Maintain folds them into the
// ASU-resident subtrees — each group rebuilt as a parallel batch job on
// its own ASU.

// Insert adds e to the index online. Only Partition and Replicated
// organizations support insertion (striped leaves would need to re-stripe).
// The entry is buffered against the group whose MBR it extends least and
// becomes visible to queries immediately.
func (dt *Distributed) Insert(p *sim.Proc, e Entry) {
	if dt.mode == Stripe {
		panic("rtree: Insert not supported on striped organization")
	}
	host := dt.cl.Hosts[0]
	// Online upper-level work: choose the group and extend its MBR.
	host.Compute(p, float64(len(dt.groupBox))*dt.cl.Params.Costs.CompareOps+dt.cl.Touch(host))
	best, bestGrowth := -1, 0.0
	for g, box := range dt.groupBox {
		if dt.subtrees[g] == nil {
			continue
		}
		u := box.Union(e.Box)
		growth := area(u) - area(box)
		if best < 0 || growth < bestGrowth {
			best, bestGrowth = g, growth
		}
	}
	if best < 0 {
		panic("rtree: no group to insert into")
	}
	dt.groupBox[best] = dt.groupBox[best].Union(e.Box)
	if dt.pending == nil {
		dt.pending = make(map[int][]Entry)
	}
	dt.pending[best] = append(dt.pending[best], e)
	dt.entries = append(dt.entries, e)
}

// Pending reports buffered entries not yet folded into subtrees.
func (dt *Distributed) Pending() int {
	n := 0
	for _, es := range dt.pending {
		n += len(es)
	}
	return n
}

// Maintain folds all pending inserts into their groups' subtrees: each
// affected ASU rebuilds its subtree as a batch job (n·log n comparisons on
// the ASU plus rewriting the subtree's leaves to its disk), all groups in
// parallel, while the host's upper layer stays available. Maintain blocks
// until every batch job completes and returns the elapsed virtual time.
func (dt *Distributed) Maintain() (sim.Duration, error) {
	return dt.maintain(false)
}

// MaintainOnHost performs the same rebuilds centrally: every affected
// subtree's data crosses the interconnect to the host, is rebuilt there
// serially, and ships back — the comparison point showing why the paper
// pushes maintenance down to the ASUs.
func (dt *Distributed) MaintainOnHost() (sim.Duration, error) {
	return dt.maintain(true)
}

func (dt *Distributed) maintain(onHost bool) (sim.Duration, error) {
	if dt.mode == Stripe {
		return 0, fmt.Errorf("rtree: maintenance not supported on striped organization")
	}
	cl := dt.cl
	host := cl.Hosts[0]
	cm := cl.Params.Costs
	groups := make([]int, 0, len(dt.pending))
	for g, es := range dt.pending {
		if len(es) > 0 {
			groups = append(groups, g)
		}
	}
	sort.Ints(groups)
	start := cl.Sim.Now()
	rebuild := func(p *sim.Proc, g int) {
		// Merge pending entries into the group's entry set.
		var es []Entry
		if dt.subtrees[g] != nil {
			for _, leaf := range dt.subtrees[g].Leaves() {
				es = append(es, leaf.Entries...)
			}
		}
		es = append(es, dt.pending[g]...)
		added := len(dt.pending[g])
		n := len(es)
		bytes := n * EntryBytes
		for _, asuIdx := range dt.replicaASUs[g] {
			asu := cl.ASUs[asuIdx]
			if onHost {
				// Read the subtree off the unit, ship it up,
				// rebuild centrally, ship back.
				asu.Disk.EndReadRun()
				asu.Disk.Read(p, bytes-added*EntryBytes)
				cl.Net.Stream(p, asu.NIC, host.NIC, bytes+64)
				host.Compute(p, float64(n)*(cluster.CeilLog2(n)*cm.CompareOps+cl.Touch(host)))
				cl.Net.Stream(p, host.NIC, asu.NIC, bytes+64)
				asu.Disk.Write(p, bytes)
			} else {
				// Batch job on the ASU: ship only the new entries.
				cl.Net.Stream(p, host.NIC, asu.NIC, added*EntryBytes+64)
				asu.Disk.EndReadRun()
				asu.Disk.Read(p, bytes-added*EntryBytes)
				asu.Compute(p, float64(n)*(cluster.CeilLog2(n)*cm.CompareOps+cl.Touch(asu)))
				asu.Disk.Write(p, bytes)
				asu.Disk.Flush(p)
			}
		}
		dt.subtrees[g] = Build(es, dt.fanout)
		dt.groupBox[g] = dt.subtrees[g].Root.Box
		dt.pending[g] = nil
	}
	if onHost {
		cl.Sim.Spawn("maintain@host", func(p *sim.Proc) {
			for _, g := range groups {
				rebuild(p, g)
			}
		})
	} else {
		for _, g := range groups {
			g := g
			cl.Sim.Spawn(fmt.Sprintf("maintain.g%d", g), func(p *sim.Proc) {
				rebuild(p, g)
			})
		}
	}
	if err := cl.Sim.Run(); err != nil {
		return 0, err
	}
	return sim.Duration(cl.Sim.Now() - start), nil
}

// InsertBatch inserts entries online in one proc and reports the elapsed
// time (a convenience for experiments).
func (dt *Distributed) InsertBatch(entries []Entry) (sim.Duration, error) {
	if dt.mode == Stripe {
		return 0, fmt.Errorf("rtree: Insert not supported on striped organization")
	}
	cl := dt.cl
	start := cl.Sim.Now()
	cl.Sim.Spawn("insert-batch", func(p *sim.Proc) {
		for _, e := range entries {
			dt.Insert(p, e)
		}
	})
	if err := cl.Sim.Run(); err != nil {
		return 0, err
	}
	return sim.Duration(cl.Sim.Now() - start), nil
}

func area(r Rect) float64 {
	w, h := r.MaxX-r.MinX, r.MaxY-r.MinY
	if w < 0 || h < 0 {
		return 0
	}
	return w * h
}
