package terraflow

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
)

func testCluster(hosts, asus int) *cluster.Cluster {
	p := cluster.DefaultParams()
	p.Hosts, p.ASUs = hosts, asus
	p.RecordSize = CellRecordSize
	return cluster.New(p)
}

// countWatersheds reports the number of distinct labels.
func countWatersheds(colors []uint32) int {
	seen := make(map[uint32]struct{})
	for _, c := range colors {
		seen[c] = struct{}{}
	}
	return len(seen)
}

func TestGridBasics(t *testing.T) {
	g := NewGrid(4, 3)
	g.Set(2, 1, 77)
	if g.At(2, 1) != 77 || g.ID(2, 1) != 6 || g.Cells() != 12 || g.Bytes() != 48 {
		t.Fatal("grid accessors wrong")
	}
}

func TestEncodeDecodeCell(t *testing.T) {
	g := NewGrid(3, 3)
	for i := range g.Elev {
		g.Elev[i] = uint32(i * 10)
	}
	var rec [CellRecordSize]byte
	EncodeCell(g, 1, 1, rec[:])
	c := DecodeCell(rec[:])
	if c.Elev != 40 || c.X != 1 || c.Y != 1 {
		t.Fatalf("center cell decoded %+v", c)
	}
	// Neighbor order: N, NE, E, SE, S, SW, W, NW.
	want := [8]uint32{10, 20, 50, 80, 70, 60, 30, 0}
	if c.Nbr != want {
		t.Fatalf("neighbors %v, want %v", c.Nbr, want)
	}
	// Corner cell has NoNeighbor marks.
	EncodeCell(g, 0, 0, rec[:])
	c = DecodeCell(rec[:])
	if c.Nbr[0] != NoNeighbor || c.Nbr[6] != NoNeighbor || c.Nbr[7] != NoNeighbor {
		t.Fatalf("corner neighbors %v", c.Nbr)
	}
	if c.Nbr[2] != 10 || c.Nbr[4] != 30 {
		t.Fatalf("corner E/S %v", c.Nbr)
	}
}

func TestSteepestDescent(t *testing.T) {
	g := NewGrid(3, 1)
	g.Elev = []uint32{5, 3, 9}
	var rec [CellRecordSize]byte
	EncodeCell(g, 0, 0, rec[:])
	if sd, ok := SteepestDescent(3, 1, DecodeCell(rec[:])); !ok || sd != 2 {
		t.Fatalf("cell 0 sd=%d ok=%v, want E", sd, ok)
	}
	EncodeCell(g, 1, 0, rec[:])
	if _, ok := SteepestDescent(3, 1, DecodeCell(rec[:])); ok {
		t.Fatal("local minimum reported a descent")
	}
	// Plateau tie: equal elevation, lower id wins as "descent".
	g.Elev = []uint32{7, 7, 7}
	EncodeCell(g, 1, 0, rec[:])
	if sd, ok := SteepestDescent(3, 1, DecodeCell(rec[:])); !ok || sd != 6 {
		t.Fatalf("plateau cell 1 sd=%d ok=%v, want W (lower id)", sd, ok)
	}
	EncodeCell(g, 0, 0, rec[:])
	if _, ok := SteepestDescent(3, 1, DecodeCell(rec[:])); ok {
		t.Fatal("plateau cell 0 must be the minimum")
	}
}

func TestReferenceSingleCone(t *testing.T) {
	g := FromBasins(16, 16, []Basin{{X: 8, Y: 8, Base: 0}}, 10)
	colors := ReferenceWatersheds(g)
	if n := countWatersheds(colors); n != 1 {
		t.Fatalf("cone has %d watersheds, want 1", n)
	}
	if colors[0] != g.ID(8, 8) {
		t.Fatalf("corner drains to %d, want center %d", colors[0], g.ID(8, 8))
	}
}

func TestReferenceTwoBasins(t *testing.T) {
	g := FromBasins(32, 16, []Basin{{X: 4, Y: 8, Base: 0}, {X: 27, Y: 8, Base: 0}}, 10)
	colors := ReferenceWatersheds(g)
	if n := countWatersheds(colors); n != 2 {
		t.Fatalf("%d watersheds, want 2", n)
	}
	if colors[g.ID(0, 8)] != g.ID(4, 8) || colors[g.ID(31, 8)] != g.ID(27, 8) {
		t.Fatal("edges drain to wrong basins")
	}
}

func TestFullRunMatchesReference(t *testing.T) {
	cl := testCluster(1, 4)
	g, _ := SyntheticBasins(24, 24, 3, 10, 7)
	opt := DefaultOptions()
	opt.Sort = dsmsort.Config{Alpha: 4, Beta: 64, Gamma2: 4, PacketRecords: 32, Placement: dsmsort.Active, Seed: 1}
	opt.PacketRecords = 32
	res, err := Run(cl, g, opt) // Run validates against the reference
	if err != nil {
		t.Fatal(err)
	}
	if res.Restructure <= 0 || res.Sort <= 0 || res.Watershed <= 0 {
		t.Fatalf("phase times %v %v %v", res.Restructure, res.Sort, res.Watershed)
	}
	if res.Watersheds < 1 || res.Watersheds > 3 {
		t.Fatalf("%d watersheds from 3 basins", res.Watersheds)
	}
}

func TestConventionalRunMatchesReference(t *testing.T) {
	cl := testCluster(1, 2)
	g, _ := SyntheticBasins(16, 16, 2, 10, 3)
	opt := DefaultOptions()
	opt.Placement = dsmsort.Conventional
	opt.XSort.MemRecords = 128
	if _, err := Run(cl, g, opt); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTerrainMatchesReference(t *testing.T) {
	// Uniform random elevations: many watersheds, heavy plateau-free
	// tie-breaking; the TFP result must still match exactly.
	cl := testCluster(1, 2)
	g := Random(20, 20, 99)
	opt := DefaultOptions()
	opt.Sort = dsmsort.Config{Alpha: 4, Beta: 64, Gamma2: 4, PacketRecords: 32, Placement: dsmsort.Active, Seed: 1}
	res, err := Run(cl, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Watersheds < 2 {
		t.Fatalf("random terrain produced %d watersheds; expected many", res.Watersheds)
	}
}

func TestPlateauTerrain(t *testing.T) {
	// A constant grid is one giant plateau: every cell must drain to
	// cell 0 by id order.
	cl := testCluster(1, 2)
	g := NewGrid(8, 8)
	for i := range g.Elev {
		g.Elev[i] = 500
	}
	opt := DefaultOptions()
	opt.Sort = dsmsort.Config{Alpha: 2, Beta: 32, Gamma2: 4, PacketRecords: 16, Placement: dsmsort.Active, Seed: 1}
	res, err := Run(cl, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Watersheds != 1 || res.Colors[63] != 0 {
		t.Fatalf("plateau: %d watersheds, corner color %d", res.Watersheds, res.Colors[63])
	}
}

// TestWatershedProperty: both emulated time-forward passes equal their
// references on arbitrary random terrains (Run returns an error on any
// divergence, including the watershed-size cross-check).
func TestWatershedProperty(t *testing.T) {
	f := func(seed int64, wRaw, hRaw uint8) bool {
		w := int(wRaw%12) + 4
		h := int(hRaw%12) + 4
		cl := testCluster(1, 2)
		g := Random(w, h, seed)
		opt := DefaultOptions()
		opt.Sort = dsmsort.Config{Alpha: 2, Beta: 32, Gamma2: 4, PacketRecords: 16, Placement: dsmsort.Active, Seed: 1}
		opt.PacketRecords = 16
		_, err := Run(cl, g, opt)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPassDurationsPinned pins every phase's virtual time, so a change to
// the time-forward loop that reorders its queue, disk or CPU charges shows
// up here. The third case spills the priority queue to disk.
func TestPassDurationsPinned(t *testing.T) {
	small := dsmsort.Config{Alpha: 4, Beta: 64, Gamma2: 4, PacketRecords: 32, Placement: dsmsort.Active, Seed: 1}
	basins := func(w, h, n int, seed int64) *Grid {
		g, _ := SyntheticBasins(w, h, n, 10, seed)
		return g
	}
	cases := []struct {
		name string
		asus int
		g    *Grid
		opt  func(*Options)
		// want is restructure, sort, watershed, flow accumulation in ns.
		want       [4]int64
		watersheds int
	}{
		{"active", 4, basins(32, 32, 3, 11), func(o *Options) { o.Sort, o.PacketRecords = small, 32 },
			[4]int64{5795192, 6954489, 7923418, 1180752}, 2},
		{"conventional", 2, basins(16, 16, 2, 3), func(o *Options) { o.Placement, o.XSort.MemRecords = dsmsort.Conventional, 128 },
			[4]int64{10201428, 10446632, 5983706, 305640}, 1},
		{"spilling", 2, Random(96, 96, 5), func(o *Options) { o.Sort = small },
			[4]int64{19812663, 80205994, 52680201, 13363099}, 1021},
	}
	for _, c := range cases {
		opt := DefaultOptions()
		c.opt(&opt)
		res, err := Run(testCluster(1, c.asus), c.g, opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := [4]int64{int64(res.Restructure), int64(res.Sort), int64(res.Watershed), int64(res.FlowAccum)}
		if got != c.want || res.Watersheds != c.watersheds {
			t.Errorf("%s: phases %v ns and %d watersheds, want %v and %d", c.name, got, res.Watersheds, c.want, c.watersheds)
		}
	}
}

// TestFailedVisitStopsThePass: a visit error ends the pass at that cell
// and closes the feeds, so the prefetch readers blocked on them exit
// instead of leaving the simulation deadlocked; cells out of order end it
// the same way.
func TestFailedVisitStopsThePass(t *testing.T) {
	cl := testCluster(1, 4)
	g, _ := SyntheticBasins(64, 64, 3, 10, 11) // 16 packets per ASU, 4 fit a feed
	opt := DefaultOptions()
	sets, _, err := Restructure(cl, g, opt.Placement, opt.PacketRecords)
	if err != nil {
		t.Fatal(err)
	}
	cells, _, err := sortCells(cl, opt.Placement, opt.Sort, opt.XSort, inputFromSets(sets))
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	visited := 0
	_, err = timeForward(cl, g, cells, "failing", false, func(Cell, uint32, []uint64, func(int, uint64)) error {
		if visited++; visited == 10 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || !strings.Contains(err.Error(), "terraflow: failing: ") {
		t.Fatalf("err = %v, want the visit's error naming the pass", err)
	}
	if visited != 10 {
		t.Fatalf("visited %d cells, want the pass to stop at the failing 10th", visited)
	}
	// Cells fed out of order are an error, not a panic: the watershed
	// misses its first steepest-descent message, and flow accumulation
	// meets a cell below the one before it.
	slices.Reverse(cells)
	if _, _, err := watershed(cl, g, cells); err == nil || !strings.Contains(err.Error(), "missing message") {
		t.Fatalf("watershed over reversed cells: err = %v, want a missing message", err)
	}
	if _, _, err := flowAccumulation(cl, g, cells); err == nil || !strings.Contains(err.Error(), "terraflow: flowaccum: cell ") || !strings.Contains(err.Error(), "visited out of order") {
		t.Fatalf("flow accumulation over reversed cells: err = %v, want a cell visited out of order", err)
	}
}

func TestRestructureActiveFasterWithManyASUs(t *testing.T) {
	// Step 1 is "easily distributed": ASU-parallel restructuring should
	// beat the host pulling every band through itself.
	g, _ := SyntheticBasins(64, 64, 4, 10, 5)
	elapsed := func(placement dsmsort.Placement) float64 {
		cl := testCluster(1, 8)
		_, d, err := Restructure(cl, g, placement, 64)
		if err != nil {
			t.Fatal(err)
		}
		return d.Seconds()
	}
	active, conv := elapsed(dsmsort.Active), elapsed(dsmsort.Conventional)
	if active >= conv {
		t.Fatalf("active restructure %.6fs not faster than conventional %.6fs", active, conv)
	}
}

func TestBandPartition(t *testing.T) {
	total := 0
	for i := 0; i < 7; i++ {
		lo, hi := band(100, 7, i)
		total += hi - lo
		if lo > hi {
			t.Fatal("negative band")
		}
	}
	if total != 100 {
		t.Fatalf("bands cover %d rows, want 100", total)
	}
}
