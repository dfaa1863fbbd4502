package terraflow

import (
	"cmp"
	"slices"
)

// downhill reports the id of the neighbor each cell drains to, or NoNeighbor
// for a local minimum: the steepest-descent rule applied to the raster in
// memory, with no sort and no message passing.
func downhill(g *Grid) []uint32 {
	down := make([]uint32, g.Cells())
	var rec [CellRecordSize]byte
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			EncodeCell(g, x, y, rec[:])
			c := DecodeCell(rec[:])
			id := g.ID(x, y)
			down[id] = NoNeighbor
			if sd, ok := SteepestDescent(g.W, g.H, c); ok {
				down[id], _ = NeighborID(g.W, g.H, c.X, c.Y, sd)
			}
		}
	}
	return down
}

// ReferenceWatersheds labels every cell with the id of the local minimum it
// drains to, by direct steepest-descent pointer chasing in memory. It is
// the oracle the time-forward implementation is validated against: both
// use the same total order and the same steepest-descent rule, so their
// labelings must be identical.
func ReferenceWatersheds(g *Grid) []uint32 {
	down := downhill(g)
	colors := make([]uint32, len(down))
	for i := range colors {
		colors[i] = NoNeighbor
	}
	// Follow descent pointers from each uncolored cell, then color the
	// whole path once the sink is known.
	var path []uint32
	for id := range colors {
		path = path[:0]
		c := uint32(id)
		for colors[c] == NoNeighbor {
			path = append(path, c)
			if down[c] == NoNeighbor {
				colors[c] = c // a local minimum: its own id
				break
			}
			c = down[c]
		}
		for _, p := range path {
			colors[p] = colors[c]
		}
	}
	return colors
}

// ReferenceAccumulation computes upstream areas in memory by processing
// cells in descending total order — the oracle for the flow-accumulation
// pass.
func ReferenceAccumulation(g *Grid) []uint32 {
	down := downhill(g)
	ids := make([]uint32, len(down))
	areas := make([]uint32, len(down))
	for i := range ids {
		ids[i], areas[i] = uint32(i), 1
	}
	slices.SortFunc(ids, func(a, b uint32) int {
		return cmp.Compare(order(g.Elev[b], b), order(g.Elev[a], a))
	})
	for _, id := range ids {
		if d := down[id]; d != NoNeighbor {
			areas[d] += areas[id]
		}
	}
	return areas
}
