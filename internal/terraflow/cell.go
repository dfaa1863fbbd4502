package terraflow

import "encoding/binary"

// CellRecordSize is the fixed record size for restructured grid cells:
// 4 B elevation key (the leading 4-byte sort key of package records, so
// both sorts order cells by elevation), 4 B x, 4 B y, 8 x 4 B neighbor
// elevations, 4 B pad.
// Embedding neighbor and position information is exactly what lets cells
// "be processed independently, effectively converting the grid from a
// stream into a set".
const CellRecordSize = 48

// NoNeighbor marks a missing (off-grid) neighbor elevation. Generated
// elevations stay below MaxElev, so the sentinel is unambiguous.
const NoNeighbor = uint32(0xFFFFFFFF)

// neighborOffsets enumerates the 8-connected neighborhood in a fixed order.
var neighborOffsets = [8][2]int{
	{0, -1}, {1, -1}, {1, 0}, {1, 1}, {0, 1}, {-1, 1}, {-1, 0}, {-1, -1},
}

// Cell is a decoded restructured grid cell.
type Cell struct {
	Elev uint32
	X, Y uint32
	// Nbr holds neighbor elevations in neighborOffsets order;
	// NoNeighbor where the grid ends.
	Nbr [8]uint32
}

// EncodeCell writes the restructured record for (x, y) into rec.
func EncodeCell(g *Grid, x, y int, rec []byte) {
	_ = rec[CellRecordSize-1]
	binary.LittleEndian.PutUint32(rec[0:], g.At(x, y))
	binary.LittleEndian.PutUint32(rec[4:], uint32(x))
	binary.LittleEndian.PutUint32(rec[8:], uint32(y))
	for i, off := range neighborOffsets {
		nx, ny := x+off[0], y+off[1]
		e := NoNeighbor
		if nx >= 0 && nx < g.W && ny >= 0 && ny < g.H {
			e = g.At(nx, ny)
		}
		binary.LittleEndian.PutUint32(rec[12+4*i:], e)
	}
	binary.LittleEndian.PutUint32(rec[44:], 0)
}

// DecodeCell parses a restructured record.
func DecodeCell(rec []byte) Cell {
	var c Cell
	c.Elev = binary.LittleEndian.Uint32(rec[0:])
	c.X = binary.LittleEndian.Uint32(rec[4:])
	c.Y = binary.LittleEndian.Uint32(rec[8:])
	for i := range c.Nbr {
		c.Nbr[i] = binary.LittleEndian.Uint32(rec[12+4*i:])
	}
	return c
}

// order is the total processing order on cells: (elevation, id). Ties in
// elevation are broken by id so time-forward processing has a strict order
// even on plateaus.
func order(elev, id uint32) uint64 { return uint64(elev)<<32 | uint64(id) }

// NeighborID reports the cell id of neighbor i of (x, y) on a WxH grid, or
// false if off-grid.
func NeighborID(w, h int, x, y uint32, i int) (uint32, bool) {
	nx, ny := int(x)+neighborOffsets[i][0], int(y)+neighborOffsets[i][1]
	if nx < 0 || nx >= w || ny < 0 || ny >= h {
		return 0, false
	}
	return uint32(ny*w + nx), true
}

// SteepestDescent reports the neighbor index that cell c drains to — the
// minimum (elevation, id) among neighbors below c in the total order — or
// false if c is a local minimum.
func SteepestDescent(w, h int, c Cell) (int, bool) {
	selfID := c.Y*uint32(w) + c.X
	self := order(c.Elev, selfID)
	best, bestOrd, found := -1, uint64(0), false
	for i, e := range c.Nbr {
		if e == NoNeighbor {
			continue
		}
		id, ok := NeighborID(w, h, c.X, c.Y, i)
		if !ok {
			continue
		}
		o := order(e, id)
		if o >= self {
			continue
		}
		if !found || o < bestOrd {
			best, bestOrd, found = i, o, true
		}
	}
	return best, found
}
