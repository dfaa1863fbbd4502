package terraflow

import (
	"fmt"
	"sort"

	"lmas/internal/bte"
	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/dsmsort"
	"lmas/internal/extsort"
	"lmas/internal/records"
	"lmas/internal/sim"
)

// restructureOpsPerCell is the declared per-cell cost of step 1 beyond the
// per-record touch: gathering eight neighbor elevations.
const restructureOpsPerCell = 8

// band reports the row range ASU i of d holds: contiguous horizontal bands
// ("easily distributed (e.g., by blocking)").
func band(h, d, i int) (lo, hi int) {
	lo = i * h / d
	hi = (i + 1) * h / d
	return lo, hi
}

// Restructure runs step 1: turning the raw raster into a Set of
// self-contained cell records, one output set per ASU. With Active
// placement each ASU restructures its own band in parallel; with
// Conventional placement the host pulls every band over the interconnect,
// restructures it, and writes records back to dumb storage.
func Restructure(cl *cluster.Cluster, g *Grid, placement dsmsort.Placement, packetRecords int) ([]*container.Set, sim.Duration, error) {
	if cl.Params.RecordSize != CellRecordSize {
		return nil, 0, fmt.Errorf("terraflow: cluster record size %d, need %d", cl.Params.RecordSize, CellRecordSize)
	}
	d := len(cl.ASUs)
	sets := make([]*container.Set, d)
	for i, asu := range cl.ASUs {
		sets[i] = container.NewSet(fmt.Sprintf("cells@%s", asu.Name), bte.NewDisk(asu.Disk), CellRecordSize)
	}
	start := cl.Sim.Now()

	emitBand := func(p *sim.Proc, compute *cluster.Node, asuIdx, lo, hi int) {
		asu := cl.ASUs[asuIdx]
		// Read the band plus one halo row on each side (neighbor rows).
		rows := hi - lo
		halo := 0
		if lo > 0 {
			halo++
		}
		if hi < g.H {
			halo++
		}
		asu.Disk.Read(p, (rows+halo)*g.W*4)
		if compute.Kind == cluster.Host {
			cl.Net.Stream(p, asu.NIC, compute.NIC, (rows+halo)*g.W*4+64)
		}
		cm := cl.Params.Costs
		touch := cl.Touch(compute)
		buf := records.NewBuffer(packetRecords, CellRecordSize)
		fill := 0
		flush := func() {
			if fill == 0 {
				return
			}
			pk := container.NewPacket(buf.Slice(0, fill).ClonePooled())
			if compute.Kind == cluster.Host {
				// Records return to dumb storage over the net.
				cl.Net.Stream(p, compute.NIC, asu.NIC, pk.Bytes()+64)
			}
			sets[asuIdx].Add(p, pk)
			fill = 0
		}
		for y := lo; y < hi; y++ {
			// Per-row CPU charge keeps compute interleaved with I/O.
			compute.Compute(p, float64(g.W)*(touch+restructureOpsPerCell*cm.CompareOps))
			for x := 0; x < g.W; x++ {
				EncodeCell(g, x, y, buf.Record(fill))
				fill++
				if fill == packetRecords {
					flush()
				}
			}
		}
		flush()
		sets[asuIdx].Flush(p)
	}

	switch placement {
	case dsmsort.Active:
		for i := 0; i < d; i++ {
			i := i
			lo, hi := band(g.H, d, i)
			cl.Sim.Spawn(fmt.Sprintf("restructure@asu%d", i), func(p *sim.Proc) {
				emitBand(p, cl.ASUs[i], i, lo, hi)
			})
		}
	case dsmsort.Conventional:
		host := cl.Hosts[0]
		cl.Sim.Spawn("restructure@host", func(p *sim.Proc) {
			for i := 0; i < d; i++ {
				lo, hi := band(g.H, d, i)
				emitBand(p, host, i, lo, hi)
			}
		})
	default:
		return nil, 0, fmt.Errorf("terraflow: unknown placement %v", placement)
	}
	if err := cl.Sim.Run(); err != nil {
		return nil, 0, fmt.Errorf("terraflow: restructure: %w", err)
	}
	return sets, sim.Duration(cl.Sim.Now() - start), nil
}

// inputFromSets wraps step 1's output as a sort input, digesting the
// records outside virtual time.
func inputFromSets(sets []*container.Set) *dsmsort.Input {
	in := &dsmsort.Input{Sets: sets}
	for _, set := range sets {
		set.ForEach(func(pk container.Packet) bool {
			in.Checksum.Add(pk.Buf)
			in.N += pk.Len()
			return true
		})
	}
	return in
}

// sortedPacket is one packet of step 2's elevation-ordered output, with the
// ASU whose disk holds it so its delivery can be charged (-1: the output is
// not on an ASU's disk and is delivered free).
type sortedPacket struct {
	pk  container.Packet
	asu int
}

// sortCells runs step 2 and returns the ordered sequence. Active placement
// uses DSM-Sort; Conventional uses the host-only external mergesort.
func sortCells(cl *cluster.Cluster, placement dsmsort.Placement, cfg dsmsort.Config, xcfg extsort.Config, in *dsmsort.Input) ([]sortedPacket, sim.Duration, error) {
	start := cl.Sim.Now()
	var out []sortedPacket
	switch placement {
	case dsmsort.Active:
		res, err := dsmsort.Sort(cl, cfg, in)
		if err != nil {
			return nil, 0, fmt.Errorf("terraflow: sort: %w", err)
		}
		for asuIdx, st := range res.Output.Streams {
			st.ForEach(func(pk container.Packet) bool {
				out = append(out, sortedPacket{pk: pk, asu: asuIdx})
				return true
			})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].pk.Bucket != out[j].pk.Bucket {
				return out[i].pk.Bucket < out[j].pk.Bucket
			}
			return out[i].pk.Run < out[j].pk.Run
		})
	case dsmsort.Conventional:
		res, err := extsort.Sort(cl, xcfg, in)
		if err != nil {
			return nil, 0, fmt.Errorf("terraflow: extsort: %w", err)
		}
		srcASU := -1
		for i, asu := range cl.ASUs {
			if eng, ok := res.Output.Engine().(*bte.DiskEngine); ok && eng.Disk() == asu.Disk {
				srcASU = i
			}
		}
		res.Output.ForEach(func(pk container.Packet) bool {
			out = append(out, sortedPacket{pk: pk, asu: srcASU})
			return true
		})
	default:
		return nil, 0, fmt.Errorf("terraflow: unknown placement %v", placement)
	}
	return out, sim.Duration(cl.Sim.Now() - start), nil
}
