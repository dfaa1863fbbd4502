// Command rtreebench compares the partitioned and striped distributed
// R-tree organizations (paper Figure 5) on emulated clusters, sweeping
// query sizes so the latency/throughput tradeoff is visible.
//
//	rtreebench -entries 16384 -asus 8 -fanout 16
package main

import (
	"flag"
	"fmt"
	"os"

	"lmas/internal/cluster"
	"lmas/internal/plot"
	"lmas/internal/rtree"
)

func main() {
	var (
		entries = flag.Int("entries", 1<<14, "indexed rectangles")
		asus    = flag.Int("asus", 8, "ASU count")
		fanout  = flag.Int("fanout", 16, "R-tree fanout")
		clients = flag.Int("clients", 8, "concurrent clients for throughput")
		seed    = flag.Int64("seed", 42, "workload seed")
	)
	flag.Parse()

	es := rtree.GenerateEntries(*entries, 0.005, *seed)
	mk := func(mode rtree.Mode) *rtree.Distributed {
		params := cluster.DefaultParams()
		params.Hosts, params.ASUs = 1, *asus
		return rtree.NewDistributed(cluster.New(params), es, *fanout, mode)
	}

	lat := plot.NewTable(
		fmt.Sprintf("Single-query latency (%d entries, %d ASUs)", *entries, *asus),
		"query side", "partition(s)", "stripe(s)", "stripe wins")
	for _, side := range []float64{0.02, 0.1, 0.4, 0.8} {
		q := rtree.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.1 + side, MaxY: 0.1 + side}
		_, pl, err := mk(rtree.Partition).QueryOnce(q)
		check(err)
		_, sl, err := mk(rtree.Stripe).QueryOnce(q)
		check(err)
		lat.AddRow(fmt.Sprintf("%.2f", side), pl.Seconds(), sl.Seconds(), sl < pl)
	}
	fmt.Println(lat)

	mkRep := func() *rtree.Distributed {
		params := cluster.DefaultParams()
		params.Hosts, params.ASUs = 1, *asus
		return rtree.NewReplicated(cluster.New(params), es, *fanout, 2)
	}

	thr := plot.NewTable(
		fmt.Sprintf("Concurrent throughput, %d clients", *clients),
		"workload", "partition qps", "stripe qps", "replicated(x2) qps")
	uniform := rtree.GenerateQueries(128, 0.02, *seed+1)
	hotRegion := rtree.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.45, MaxY: 0.45}
	hot := rtree.GenerateHotQueries(128, 0.02, hotRegion, 0.9, *seed+2)
	for _, w := range []struct {
		name    string
		queries []rtree.Rect
	}{{"uniform", uniform}, {"hot-spot 90%", hot}} {
		_, pq, err := mk(rtree.Partition).Throughput(w.queries, *clients)
		check(err)
		_, sq, err := mk(rtree.Stripe).Throughput(w.queries, *clients)
		check(err)
		_, rq, err := mkRep().Throughput(w.queries, *clients)
		check(err)
		thr.AddRow(w.name, pq, sq, rq)
	}
	fmt.Println(thr)

	// Online maintenance cycle: insert, degrade, maintain, restore.
	dt := mk(rtree.Partition)
	probe := rtree.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.32, MaxY: 0.32}
	_, clean, err := dt.QueryOnce(probe)
	check(err)
	extra := rtree.GenerateEntries(*entries/4, 0.005, *seed+3)
	for i := range extra {
		extra[i].ID += 1 << 20
	}
	_, err = dt.InsertBatch(extra)
	check(err)
	_, degraded, err := dt.QueryOnce(probe)
	check(err)
	asuMaint, err := dt.Maintain()
	check(err)
	_, restored, err := dt.QueryOnce(probe)
	check(err)
	fmt.Printf("online maintenance (%d inserts): query %0.3fms clean -> %0.3fms buffered -> %0.3fms after %0.3fms of parallel ASU maintenance\n",
		len(extra), clean.Seconds()*1e3, degraded.Seconds()*1e3,
		restored.Seconds()*1e3, asuMaint.Seconds()*1e3)
	fmt.Println("all query results validated against brute-force scans")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtreebench:", err)
		os.Exit(1)
	}
}
