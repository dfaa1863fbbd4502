package experiments

import (
	"encoding/json"
	"testing"

	"lmas/internal/dsmsort"
)

// Golden hashes of the critpath section of two profiled cells, captured from
// commit 47cb541 (before the devices reported their intervals through
// sim.Timeline) by running this test there. The section is the one output
// made only of profiler charges, and no other gate covers it: the bench
// baseline and the asulab tables are unprofiled. Moving a charge's instant —
// charging a device wait when it ends instead of when the proc blocks, say —
// changes the chains' clamping and so these bytes.
const (
	goldenCritpathSmoke  = "27c2efa687962049af310dc7fd2ee46fec1780a1b77511927bfe97edf89ce648"
	goldenCritpathHybrid = "3edbf39a2e62058da962a198c9b2f245ba0955128b6b87ff4e731297a2a38ad1"
)

// critpathSpec is CI's critpath smoke cell, `dsmsort -n 16384 -asus 8
// -critpath`, with dsmsort's flag defaults spelled out.
func critpathSpec(placement dsmsort.Placement) SortRunSpec {
	return SortRunSpec{
		Name:          "critpath",
		N:             16384,
		Hosts:         1,
		ASUs:          8,
		C:             8,
		Alpha:         16,
		Beta:          64,
		Gamma2:        16,
		PacketRecords: 64,
		Placement:     placement,
		Policy:        "static",
		Dist:          "uniform",
		Seed:          42,
		Critpath:      true,
	}
}

// TestGoldenCritpathSection compares the critpath section of the smoke cell
// and of its hybrid-placement twin with the pinned hashes.
func TestGoldenCritpathSection(t *testing.T) {
	for _, c := range []struct {
		placement dsmsort.Placement
		want      string
	}{
		{dsmsort.Active, goldenCritpathSmoke},
		{dsmsort.Hybrid, goldenCritpathHybrid},
	} {
		rep, _, err := RunSortReport(critpathSpec(c.placement))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Critpath == nil {
			t.Fatalf("%v: report has no critpath section", c.placement)
		}
		b, err := json.Marshal(rep.Critpath)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(b); got != c.want {
			t.Errorf("%v: critpath section sha256 %s over %d bytes, want %s", c.placement, got, len(b), c.want)
		}
	}
}
