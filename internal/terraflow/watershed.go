package terraflow

import (
	"cmp"
	"fmt"
	"slices"

	"lmas/internal/bte"
	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/dsmsort"
	"lmas/internal/extsort"
	"lmas/internal/pqueue"
	"lmas/internal/sim"
)

// visitOpsPerCell is a time-forward visit's declared per-cell cost beyond the
// touch and the priority-queue charges: choosing the steepest descent and
// preparing up to eight forward messages.
const visitOpsPerCell = 16

// pqMemItems sizes the time-forward priority queue's in-memory buffer.
const pqMemItems = 1 << 12

// visitFunc processes one cell of a time-forward pass. in holds the payloads
// earlier cells addressed to it; send(i, payload) forwards a payload to
// neighbor i, and is dropped unless that neighbor comes later in the pass.
type visitFunc func(c Cell, id uint32, in []uint64, send func(i int, payload uint64)) error

// timeForward visits every cell of the sorted sequence once, on the
// cluster's first host, in the total order (elevation, id) — or its reverse
// when descending — with each cell seeing exactly the messages earlier cells
// sent it. The messages wait in a priority queue keyed by the receiver's
// place in the order; the queue spills to the first ASU's disk, paying
// network hops for each spill, because the host has no local disk in the
// model of Figure 2. name labels the pass's procs, queues and errors.
//
// This step runs on a host regardless of configuration: it "is difficult
// to parallelize because it uses time-forward processing and relies on
// ordering for correctness", which is why ASUs accelerate steps 1-2 but
// not this one (the TAB-TERRA result).
func timeForward(cl *cluster.Cluster, g *Grid, cells []sortedPacket, name string, descending bool, visit visitFunc) (sim.Duration, error) {
	host := cl.Hosts[0]
	spillASU := cl.ASUs[0]
	key := func(elev, id uint32) uint64 {
		if descending {
			return ^order(elev, id)
		}
		return order(elev, id)
	}
	if descending {
		cells = slices.Clone(cells)
		slices.Reverse(cells)
	}
	start := cl.Sim.Now()
	// Per-ASU prefetch readers stream the sorted packets toward the host
	// in parallel, so the (striped) disks overlap their transfers with
	// each other and with host processing.
	feeds := make([]*sim.Queue[container.Packet], len(cl.ASUs))
	perASU := make([][]container.Packet, len(cl.ASUs))
	for _, sp := range cells {
		if sp.asu >= 0 {
			perASU[sp.asu] = append(perASU[sp.asu], sp.pk)
		}
	}
	for i, asu := range cl.ASUs {
		if len(perASU[i]) == 0 {
			continue
		}
		feed := sim.NewQueue[container.Packet](cl.Sim, fmt.Sprintf("%s.feed%d", name, i), 4)
		feeds[i] = feed
		cl.Sim.Spawn(fmt.Sprintf("%s.read@asu%d", name, i), func(p *sim.Proc) {
			for _, pk := range perASU[i] {
				asu.Disk.Read(p, pk.Bytes())
				cl.Net.Stream(p, asu.NIC, host.NIC, pk.Bytes()+64)
				_ = feed.Put(p, pk) // only this reader closes the feed, after its last Put
			}
			feed.Close()
		})
	}
	cl.Sim.Spawn(name+"@host", func(p *sim.Proc) {
		eng := &bte.Hooked{
			Engine: bte.NewDisk(spillASU.Disk),
			OnXfer: func(pp *sim.Proc, bytes int) { cl.Net.Send(pp, host.NIC, spillASU.NIC, bytes+64) },
		}
		pq := pqueue.New(cl, host, eng, pqMemItems)
		perCell := cl.Touch(host) + visitOpsPerCell*cl.Params.Costs.CompareOps

		var cur Cell
		var self uint64
		send := func(i int, payload uint64) {
			e := cur.Nbr[i]
			if e == NoNeighbor {
				return
			}
			nid, ok := NeighborID(g.W, g.H, cur.X, cur.Y, i)
			if !ok {
				return
			}
			if k := key(e, nid); k > self {
				pq.Push(p, pqueue.Item{Key: k, Payload: payload})
			}
		}
		var in []uint64
		visited := 0
		// group buffers cells of equal elevation so ties are visited in id
		// order (the total order ties are broken by).
		var group []Cell
		visitGroup := func() error {
			slices.SortFunc(group, func(a, b Cell) int {
				return cmp.Compare(key(a.Elev, g.ID(int(a.X), int(a.Y))), key(b.Elev, g.ID(int(b.X), int(b.Y))))
			})
			for _, c := range group {
				id := g.ID(int(c.X), int(c.Y))
				// Keys only grow, so each cell's messages are all queued
				// before it is visited and no message waits past it.
				k := key(c.Elev, id)
				if visited > 0 && k <= self {
					return fmt.Errorf("cell %d visited out of order", id)
				}
				cur, self = c, k
				in = in[:0]
				for {
					it, ok := pq.Peek(p)
					if !ok || it.Key != self {
						break
					}
					pq.PopMin(p)
					in = append(in, it.Payload)
				}
				if err := visit(c, id, in, send); err != nil {
					return err
				}
				host.Compute(p, perCell)
				visited++
			}
			group = group[:0]
			return nil
		}
		err := func() error {
			for _, sp := range cells {
				pk := sp.pk
				// Wait for the packet's delivery from its storage unit.
				if sp.asu >= 0 {
					got, ok := feeds[sp.asu].Get(p)
					if !ok {
						return fmt.Errorf("feed from asu%d ended early", sp.asu)
					}
					pk = got
				}
				n := pk.Len()
				for r := 0; r < n; r++ {
					rec := r
					if descending {
						rec = n - 1 - r
					}
					c := DecodeCell(pk.Buf.Record(rec))
					if len(group) > 0 && c.Elev != group[0].Elev {
						if err := visitGroup(); err != nil {
							return err
						}
					}
					group = append(group, c)
				}
			}
			if err := visitGroup(); err != nil {
				return err
			}
			switch {
			case pq.Len() != 0:
				return fmt.Errorf("%d undelivered messages after the last cell", pq.Len())
			case visited != g.Cells():
				return fmt.Errorf("visited %d of %d cells", visited, g.Cells())
			}
			return nil
		}()
		if err != nil {
			p.Fail(err) // Run kills the readers still blocked on their feeds
		}
	})
	if err := cl.Sim.Run(); err != nil {
		return 0, fmt.Errorf("terraflow: %s: %w", name, err)
	}
	return sim.Duration(cl.Sim.Now() - start), nil
}

// watershed runs step 3, the watershed coloring: visiting cells from the
// lowest up, it propagates colors "from the lowest points up/outward to the
// peaks and ridges". A local minimum starts a watershed colored with its own
// id; every other cell takes the color of its steepest-descent neighbor and
// forwards it to each neighbor visited after it.
func watershed(cl *cluster.Cluster, g *Grid, cells []sortedPacket) ([]uint32, sim.Duration, error) {
	colors := make([]uint32, g.Cells())
	d, err := timeForward(cl, g, cells, "watershed", false, func(c Cell, id uint32, in []uint64, send func(int, uint64)) error {
		color := id
		if sd, ok := SteepestDescent(g.W, g.H, c); ok {
			from, _ := NeighborID(g.W, g.H, c.X, c.Y, sd)
			color = NoNeighbor
			for _, m := range in {
				if uint32(m>>32) == from {
					color = uint32(m)
				}
			}
			if color == NoNeighbor {
				return fmt.Errorf("cell %d missing message from steepest-descent neighbor %d", id, from)
			}
		}
		colors[id] = color
		for i := range c.Nbr {
			send(i, uint64(id)<<32|uint64(color))
		}
		return nil
	})
	return colors, d, err
}

// flowAccumulation computes each cell's upstream area — the number of cells
// (including itself) whose flow path passes through it — the flow index
// TerraFlow exists to produce: "flow indices characterizing the slope
// orientation and the 'upstream' area of each grid cell of a large terrain"
// (Section 4.1). Flow follows the steepest-descent direction (single flow
// direction), so it is the time-forward pass in *descending* order: each
// cell adds one for itself to the areas of its uphill contributors and
// forwards the total downhill.
func flowAccumulation(cl *cluster.Cluster, g *Grid, cells []sortedPacket) ([]uint32, sim.Duration, error) {
	areas := make([]uint32, g.Cells())
	d, err := timeForward(cl, g, cells, "flowaccum", true, func(c Cell, id uint32, in []uint64, send func(int, uint64)) error {
		area := uint64(1)
		for _, a := range in {
			area += a
		}
		if area > uint64(len(areas)) {
			return fmt.Errorf("cell %d accumulated %d > grid size", id, area)
		}
		areas[id] = uint32(area)
		if sd, ok := SteepestDescent(g.W, g.H, c); ok {
			send(sd, area)
		}
		return nil
	})
	return areas, d, err
}

// Options configures a full TerraFlow run.
type Options struct {
	// Placement applies to steps 1 and 2 (the time-forward passes are
	// always host-side).
	Placement dsmsort.Placement
	// Sort configures DSM-Sort for Active placement.
	Sort dsmsort.Config
	// XSort configures the host-only sort for Conventional placement.
	XSort extsort.Config
	// PacketRecords sizes restructure output packets.
	PacketRecords int
}

// DefaultOptions returns a balanced configuration.
func DefaultOptions() Options {
	return Options{
		Placement:     dsmsort.Active,
		Sort:          dsmsort.Config{Alpha: 8, Beta: 256, Gamma2: 8, PacketRecords: 64, Placement: dsmsort.Active, Seed: 1},
		XSort:         extsort.Config{MemRecords: 1 << 12, FanIn: 8},
		PacketRecords: 64,
	}
}

// Result reports a full run.
type Result struct {
	Colors     []uint32
	Watersheds int
	// Areas holds each cell's upstream area.
	Areas []uint32
	// Phase durations (the TAB-TERRA breakdown).
	Restructure, Sort, Watershed, FlowAccum sim.Duration
}

// Total reports the end-to-end virtual time across all phases.
func (r *Result) Total() sim.Duration {
	return r.Restructure + r.Sort + r.Watershed + r.FlowAccum
}

// Run executes steps 1 and 2 on cl, then makes both time-forward passes over
// the sorted cells — the watershed coloring and flow accumulation — and
// validates each index against its in-memory reference.
func Run(cl *cluster.Cluster, g *Grid, opt Options) (*Result, error) {
	sets, t1, err := Restructure(cl, g, opt.Placement, opt.PacketRecords)
	if err != nil {
		return nil, err
	}
	in := inputFromSets(sets)
	if in.N != g.Cells() {
		return nil, fmt.Errorf("terraflow: restructured %d cells, want %d", in.N, g.Cells())
	}
	cells, t2, err := sortCells(cl, opt.Placement, opt.Sort, opt.XSort, in)
	if err != nil {
		return nil, err
	}
	colors, t3, err := watershed(cl, g, cells)
	if err != nil {
		return nil, err
	}
	ref := ReferenceWatersheds(g)
	for i := range ref {
		if colors[i] != ref[i] {
			return nil, fmt.Errorf("terraflow: cell %d colored %d, reference %d", i, colors[i], ref[i])
		}
	}
	areas, t4, err := flowAccumulation(cl, g, cells)
	if err != nil {
		return nil, err
	}
	refA := ReferenceAccumulation(g)
	for i := range refA {
		if areas[i] != refA[i] {
			return nil, fmt.Errorf("terraflow: cell %d area %d, reference %d", i, areas[i], refA[i])
		}
	}
	// Cross-check between the two flow indices: a local minimum's
	// upstream area is exactly its watershed's size.
	sizes := map[uint32]uint32{}
	for _, c := range colors {
		sizes[c]++
	}
	for min, size := range sizes {
		if areas[min] != size {
			return nil, fmt.Errorf("terraflow: minimum %d has area %d but watershed size %d",
				min, areas[min], size)
		}
	}
	return &Result{
		Colors:      colors,
		Watersheds:  len(sizes),
		Areas:       areas,
		Restructure: t1,
		Sort:        t2,
		Watershed:   t3,
		FlowAccum:   t4,
	}, nil
}
