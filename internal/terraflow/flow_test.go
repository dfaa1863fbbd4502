package terraflow

import (
	"testing"

	"lmas/internal/dsmsort"
)

func TestReferenceAccumulationLine(t *testing.T) {
	// A monotone 1-D slope: cell 0 is the minimum, everything drains
	// left; upstream areas are n, n-1, ..., 1.
	g := NewGrid(5, 1)
	for i := range g.Elev {
		g.Elev[i] = uint32(100 * (i + 1))
	}
	areas := ReferenceAccumulation(g)
	want := []uint32{5, 4, 3, 2, 1}
	for i, w := range want {
		if areas[i] != w {
			t.Fatalf("areas = %v, want %v", areas, want)
		}
	}
}

func TestReferenceAccumulationConservation(t *testing.T) {
	// Every cell contributes exactly once to each cell on its flow
	// path; the minimum of a single-basin terrain accumulates all.
	g := FromBasins(12, 12, []Basin{{X: 6, Y: 6, Base: 0}}, 10)
	areas := ReferenceAccumulation(g)
	if areas[g.ID(6, 6)] != uint32(g.Cells()) {
		t.Fatalf("basin center area %d, want %d", areas[g.ID(6, 6)], g.Cells())
	}
	// Ridge/peak cells have area 1 somewhere.
	min := areas[0]
	for _, a := range areas {
		if a < min {
			min = a
		}
	}
	if min != 1 {
		t.Fatalf("smallest area %d, want 1 (a cell nothing drains into)", min)
	}
}

func TestFlowAccumulationMatchesReference(t *testing.T) {
	cl := testCluster(1, 4)
	g, _ := SyntheticBasins(32, 32, 3, 10, 11)
	opt := DefaultOptions()
	opt.Sort = dsmsort.Config{Alpha: 4, Beta: 64, Gamma2: 4, PacketRecords: 32, Placement: dsmsort.Active, Seed: 1}
	opt.PacketRecords = 32
	res, err := Run(cl, g, opt) // Run validates areas and the cross-check
	if err != nil {
		t.Fatal(err)
	}
	if res.Areas == nil || res.FlowAccum <= 0 {
		t.Fatal("flow accumulation did not run")
	}
	if res.Total() <= res.Restructure+res.Sort+res.Watershed {
		t.Fatal("Total must include the flow pass")
	}
}

func TestFlowOnRandomTerrain(t *testing.T) {
	cl := testCluster(1, 2)
	g := Random(16, 16, 3)
	opt := DefaultOptions()
	opt.Sort = dsmsort.Config{Alpha: 2, Beta: 32, Gamma2: 4, PacketRecords: 16, Placement: dsmsort.Active, Seed: 1}
	opt.PacketRecords = 16
	if _, err := Run(cl, g, opt); err != nil {
		t.Fatal(err)
	}
}

func TestFlowPlateau(t *testing.T) {
	// Constant grid: all flow converges on cell 0 through id-order
	// descent chains; cell 0's area is the whole grid.
	cl := testCluster(1, 2)
	g := NewGrid(6, 6)
	for i := range g.Elev {
		g.Elev[i] = 7
	}
	opt := DefaultOptions()
	opt.Sort = dsmsort.Config{Alpha: 2, Beta: 32, Gamma2: 4, PacketRecords: 16, Placement: dsmsort.Active, Seed: 1}
	opt.PacketRecords = 16
	res, err := Run(cl, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Areas[0] != 36 {
		t.Fatalf("plateau sink area %d, want 36", res.Areas[0])
	}
}
