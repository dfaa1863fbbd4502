package rtree

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"lmas/internal/cluster"
)

func TestRectIntersects(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{1, 1, 3, 3}, true},
		{Rect{2, 2, 3, 3}, true}, // touching counts
		{Rect{3, 3, 4, 4}, false},
		{Rect{-1, -1, 0.5, 0.5}, true},
		{Rect{0.5, 3, 1, 4}, false},
	}
	for i, c := range cases {
		if a.Intersects(c.b) != c.want {
			t.Errorf("case %d: Intersects = %v", i, !c.want)
		}
	}
}

func TestRectUnion(t *testing.T) {
	u := Rect{0, 0, 1, 1}.Union(Rect{2, -1, 3, 0.5})
	if u != (Rect{0, -1, 3, 1}) {
		t.Fatalf("union = %v", u)
	}
}

func TestBuildShape(t *testing.T) {
	es := GenerateEntries(1000, 0.01, 1)
	tr := Build(es, 16)
	wantLeaves := (1000 + 15) / 16
	if len(tr.Leaves()) != wantLeaves {
		t.Fatalf("%d leaves, want %d", len(tr.Leaves()), wantLeaves)
	}
	if tr.Height < 2 {
		t.Fatalf("height %d", tr.Height)
	}
	// Every leaf within fanout; every node box covers its contents.
	var check func(n *Node)
	var checkErr string
	check = func(n *Node) {
		if n.Leaf {
			if len(n.Entries) > 16 || len(n.Entries) == 0 {
				checkErr = "bad leaf size"
			}
			for _, e := range n.Entries {
				if !n.Box.Intersects(e.Box) || n.Box.Union(e.Box) != n.Box {
					checkErr = "leaf box does not cover entry"
				}
			}
			return
		}
		if len(n.Children) > 16 || len(n.Children) == 0 {
			checkErr = "bad internal degree"
		}
		for _, c := range n.Children {
			if n.Box.Union(c.Box) != n.Box {
				checkErr = "node box does not cover child"
			}
			check(c)
		}
	}
	check(tr.Root)
	if checkErr != "" {
		t.Fatal(checkErr)
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	es := GenerateEntries(2000, 0.02, 2)
	tr := Build(es, 8)
	for _, q := range GenerateQueries(50, 0.1, 3) {
		got, _ := tr.Search(q)
		if err := validate(got, BruteForce(es, q)); err != nil {
			t.Fatalf("query %v: %v", q, err)
		}
	}
}

// TestSearchProperty: random trees and queries always agree with brute
// force.
func TestSearchProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16, fanRaw, sideRaw uint8) bool {
		n := int(nRaw%500) + 1
		fanout := int(fanRaw%14) + 2
		side := float64(sideRaw) / 255.0
		es := GenerateEntries(n, 0.05, seed)
		tr := Build(es, fanout)
		for _, q := range GenerateQueries(5, side, seed+1) {
			got, _ := tr.Search(q)
			if validate(got, BruteForce(es, q)) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchVisitsFewNodesForPointQueries(t *testing.T) {
	es := GenerateEntries(4096, 0.005, 4)
	tr := Build(es, 16)
	_, visited := tr.Search(Rect{0.5, 0.5, 0.5, 0.5})
	total := len(tr.Leaves())
	if visited > total/4 {
		t.Fatalf("point query visited %d of ~%d nodes; index not selective", visited, total)
	}
}

func distCluster(asus int) *cluster.Cluster {
	p := cluster.DefaultParams()
	p.Hosts, p.ASUs = 1, asus
	return cluster.New(p)
}

func TestDistributedCorrectBothModes(t *testing.T) {
	es := GenerateEntries(2000, 0.01, 5)
	for _, mode := range []Mode{Partition, Stripe} {
		dt := NewDistributed(distCluster(4), es, 16, mode)
		for _, q := range GenerateQueries(10, 0.15, 6) {
			if _, _, err := dt.QueryOnce(q); err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
		}
	}
}

func TestStripeBoundsLatency(t *testing.T) {
	// A large range query scans many leaves: striping spreads the scan
	// over all ASUs, so its latency must beat partitioning's.
	es := GenerateEntries(8192, 0.005, 7)
	q := Rect{0.1, 0.1, 0.9, 0.9} // wide scan
	lat := func(mode Mode) float64 {
		dt := NewDistributed(distCluster(8), es, 16, mode)
		_, l, err := dt.QueryOnce(q)
		if err != nil {
			t.Fatal(err)
		}
		return l.Seconds()
	}
	pLat, sLat := lat(Partition), lat(Stripe)
	if sLat >= pLat {
		t.Fatalf("stripe latency %.6fs >= partition %.6fs for a wide scan", sLat, pLat)
	}
}

func TestPartitionWinsThroughput(t *testing.T) {
	// Many concurrent small queries: partition serves them from
	// different ASUs; stripe makes every query occupy all ASUs.
	es := GenerateEntries(8192, 0.005, 8)
	queries := GenerateQueries(64, 0.02, 9)
	qps := func(mode Mode) float64 {
		dt := NewDistributed(distCluster(8), es, 16, mode)
		_, rate, err := dt.Throughput(queries, 8)
		if err != nil {
			t.Fatal(err)
		}
		return rate
	}
	pQPS, sQPS := qps(Partition), qps(Stripe)
	if pQPS <= sQPS {
		t.Fatalf("partition qps %.0f <= stripe qps %.0f for concurrent point-ish queries", pQPS, sQPS)
	}
}

func TestThroughputValidatesResults(t *testing.T) {
	es := GenerateEntries(500, 0.01, 10)
	dt := NewDistributed(distCluster(3), es, 8, Partition)
	if _, _, err := dt.Throughput(GenerateQueries(20, 0.1, 11), 2); err != nil {
		t.Fatal(err)
	}
}

// TestThroughputFailsOnFirstInvalidQuery: a query whose matches disagree
// with the brute-force scan fails the whole run, naming the query, and the
// clients and ASU responders still in flight are killed, not leaked.
func TestThroughputFailsOnFirstInvalidQuery(t *testing.T) {
	es := GenerateEntries(500, 0.01, 10)
	dt := NewDistributed(distCluster(3), es, 8, Partition)
	dt.entries = nil // the brute-force reference now finds nothing
	before := runtime.NumGoroutine()
	_, _, err := dt.Throughput(GenerateQueries(20, 0.1, 11), 4)
	if err == nil || !strings.HasPrefix(err.Error(), "rtree: query ") || !strings.Contains(err.Error(), "brute force 0") {
		t.Fatalf("Throughput = %v, want the first invalid query's error", err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after", before, after)
	}
}

func TestReplicatedCorrect(t *testing.T) {
	es := GenerateEntries(2000, 0.01, 5)
	dt := NewReplicated(distCluster(8), es, 16, 2)
	if dt.Mode() != Replicated {
		t.Fatal("mode")
	}
	for _, q := range GenerateQueries(10, 0.15, 6) {
		if _, _, err := dt.QueryOnce(q); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReplicationServesHotSpots(t *testing.T) {
	// A hot-spot workload concentrates on one region: partition funnels
	// it to one ASU; 2-way replication must improve throughput.
	es := GenerateEntries(8192, 0.005, 7)
	hot := Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.45, MaxY: 0.45}
	queries := GenerateHotQueries(96, 0.02, hot, 0.9, 9)
	qps := func(mk func() *Distributed) float64 {
		_, rate, err := mk().Throughput(queries, 8)
		if err != nil {
			t.Fatal(err)
		}
		return rate
	}
	part := qps(func() *Distributed { return NewDistributed(distCluster(8), es, 16, Partition) })
	repl := qps(func() *Distributed { return NewReplicated(distCluster(8), es, 16, 2) })
	if repl <= 1.3*part {
		t.Fatalf("replication qps %.0f vs partition %.0f; want >1.3x on a hot spot", repl, part)
	}
}

func TestReplicationRotatesAcrossReplicas(t *testing.T) {
	es := GenerateEntries(4096, 0.005, 8)
	cl := distCluster(8)
	dt := NewReplicated(cl, es, 16, 2)
	// Fire the same point query repeatedly; both replicas must serve.
	q := Rect{0.3, 0.3, 0.31, 0.31}
	if _, _, err := dt.QueryOnce(q); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dt.QueryOnce(q); err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, asu := range cl.ASUs {
		if _, recvd, _, _ := asu.NIC.Stats(); recvd > 0 {
			served++
		}
	}
	if served < 2 {
		t.Fatalf("only %d ASUs served a repeated hot query; rotation broken", served)
	}
}

func TestBadReplicasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewReplicated(distCluster(4), GenerateEntries(10, 0.1, 1), 4, 0)
}

func TestEmptyResultQuery(t *testing.T) {
	es := []Entry{{Box: Rect{0, 0, 0.1, 0.1}, ID: 1}}
	dt := NewDistributed(distCluster(2), es, 4, Stripe)
	ids, _, err := dt.QueryOnce(Rect{0.5, 0.5, 0.6, 0.6})
	if err != nil || len(ids) != 0 {
		t.Fatalf("ids=%v err=%v", ids, err)
	}
}

func TestBuildPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Build(nil, 4) },
		func() { Build([]Entry{{}}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		}()
	}
}

func TestModeString(t *testing.T) {
	if Partition.String() != "partition" || Stripe.String() != "stripe" {
		t.Fatal("mode strings")
	}
}

func TestLeavesOrderIsSpatial(t *testing.T) {
	// STR leaves should be spatially coherent: consecutive leaves sit
	// near each other, so the average x-distance between neighboring
	// leaf centers stays small relative to the unit square.
	es := GenerateEntries(4096, 0.002, 12)
	tr := Build(es, 16)
	leaves := tr.Leaves()
	var totalDX float64
	for i := 1; i < len(leaves); i++ {
		x1, _ := leaves[i-1].Box.Center()
		x2, _ := leaves[i].Box.Center()
		d := x2 - x1
		if d < 0 {
			d = -d
		}
		totalDX += d
	}
	avg := totalDX / float64(len(leaves)-1)
	if avg > 0.3 {
		t.Fatalf("average neighbor-leaf x distance %.3f; STR packing broken", avg)
	}
}
