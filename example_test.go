// Runnable walkthroughs of the library, each pinned by its Output block:
// `go test -run Example -v .` runs them all, and a change that moves one of
// their numbers fails the test instead of rotting a printed claim.
package lmas_test

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"lmas"
	"lmas/internal/bte"
	"lmas/internal/container"
	"lmas/internal/functor"
	"lmas/internal/records"
	"lmas/internal/route"
	"lmas/internal/rtree"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
	"lmas/internal/terraflow"
)

// Build an emulated active-storage cluster, sort a data set with DSM-Sort in
// both placements, and compare.
func Example_quickstart() {
	const n = 1 << 16 // 64K records of 128 bytes

	run := func(cfg lmas.SortConfig) (*lmas.SortResult, error) {
		// An emulated system: 1 host, 16 ASUs, ASUs 8x weaker (c=8).
		params := lmas.DefaultParams()
		params.Hosts, params.ASUs, params.C = 1, 16, 8
		cl := lmas.NewCluster(params)

		// The input starts striped across the ASUs' disks.
		in := lmas.MakeInput(cl, n, lmas.Uniform{}, 42, 64)
		return lmas.Sort(cl, cfg, in)
	}

	active := lmas.SortConfig{
		Alpha: 64, Beta: 64, Gamma2: 16, PacketRecords: 64,
		Placement: lmas.Active, Seed: 42,
	}
	conventional := active
	conventional.Placement = lmas.Conventional

	ra, err := run(active)
	must(err)
	rc, err := run(conventional)
	must(err)

	fmt.Printf("sorted %d records on 1 host + 16 ASUs (c=8)\n", n)
	fmt.Printf("  active storage (distribute on ASUs): %.4fs total, %.4fs run formation\n",
		ra.Elapsed.Seconds(), ra.Pass1.Elapsed.Seconds())
	fmt.Printf("  conventional  (all work on host):    %.4fs total, %.4fs run formation\n",
		rc.Elapsed.Seconds(), rc.Pass1.Elapsed.Seconds())
	fmt.Printf("  run-formation speedup from active storage: %.2fx (the Figure 9 metric)\n",
		rc.Pass1.Elapsed.Seconds()/ra.Pass1.Elapsed.Seconds())
	hostOps, asuOps := ra.MeasuredWork()
	fmt.Printf("  active work split: host %.1f Mops / ASUs %.1f Mops\n",
		hostOps/1e6, asuOps/1e6)
	fmt.Println("  both outputs validated (sorted + checksummed)")

	// Output:
	// sorted 65536 records on 1 host + 16 ASUs (c=8)
	//   active storage (distribute on ASUs): 0.2911s total, 0.0374s run formation
	//   conventional  (all work on host):    0.2896s total, 0.0403s run formation
	//   run-formation speedup from active storage: 1.08x (the Figure 9 metric)
	//   active work split: host 1.8 Mops / ASUs 3.1 Mops
	//   both outputs validated (sorted + checksummed)
}

// The Figure 10 phenomenon in miniature: a skewed input overloads one host
// under static routing, while load-managed simple randomization keeps both
// hosts busy and finishes earlier.
func Example_skew() {
	opt := lmas.DefaultFig10Options()
	opt.N = 1 << 16 // keep the example quick
	res, err := lmas.RunFig10(opt)
	must(err)

	fmt.Println("DSM-Sort on 2 hosts + 16 ASUs; second half of input is skewed")
	fmt.Printf("  static routing:   %.2fs, host imbalance %.2f\n",
		res.Static.Elapsed.Seconds(), res.Static.Imbalance)
	fmt.Printf("  load-managed SR:  %.2fs, host imbalance %.2f\n",
		res.Managed.Elapsed.Seconds(), res.Managed.Imbalance)
	fmt.Println()
	fmt.Println("host CPU utilization over time (#=host1, :=host2):")
	printUtil("static", res.Static.HostUtil)
	printUtil("load-managed (SR)", res.Managed.HostUtil)

	// Output:
	// DSM-Sort on 2 hosts + 16 ASUs; second half of input is skewed
	//   static routing:   0.84s, host imbalance 0.69
	//   load-managed SR:  0.57s, host imbalance 0.03
	//
	// host CPU utilization over time (#=host1, :=host2):
	//
	// static:
	//   t 0  host1 #################               host2
	//   t 1  host1 ##############################  host2 ::
	//   t 2  host1 ##############################  host2 :
	//   t 3  host1 ##############################  host2 :
	//   t 4  host1 ##############################  host2 :::::::
	//   t 5  host1 ##############################  host2 :::::
	//   t 6  host1 ##############################  host2 ::::::::::::::::
	//   t 7  host1 ##############################  host2 ::::::::::::::::::::::::::::
	//   t 8  host1                                 host2 ::::::::::::::::::::::::::::::
	//
	// load-managed (SR):
	//   t 0  host1 ###########                     host2 ::::::::::::
	//   t 1  host1 ##############################  host2 ::::::::::::::::::::::::::::
	//   t 2  host1 ##############################  host2 ::::::::::::::::::::::::::::::
	//   t 3  host1 ##############################  host2 ::::::::::::::::::::::::::::::
	//   t 4  host1 ############################    host2 ::::::::::::::::::::::::::::::
	//   t 5  host1 #############################   host2 ::::::::::::::::::::::::::::::
}

// printUtil draws two hosts' utilization windows as bars, one line per
// window (trailing blanks trimmed: an Output block cannot hold them).
func printUtil(name string, hosts []*telemetry.UtilTrace) {
	fmt.Printf("\n%s:\n", name)
	h1, h2 := hosts[0], hosts[1]
	for w := 0; w < max(h1.Len(), h2.Len()); w++ {
		bar1 := strings.Repeat("#", int(h1.At(w)*30+0.5))
		bar2 := strings.Repeat(":", int(h2.At(w)*30+0.5))
		fmt.Println(strings.TrimRight(fmt.Sprintf("  t%2d  host1 %-30s  host2 %s", w, bar1, bar2), " "))
	}
}

// The canonical active-storage pattern: filtering and aggregation at the
// storage units, so a scan over the full data set sends only matches and
// summaries across the interconnect.
func Example_offload() {
	const n = 1 << 17
	params := lmas.DefaultParams()
	params.Hosts, params.ASUs = 1, 8
	params.NetBandwidth = 60e6 // a constrained interconnect: offload matters
	cl := lmas.NewCluster(params)

	// Data set striped across the ASUs, generated one 64-record packet at a
	// time straight into pooled storage the sets take ownership of.
	gen := records.NewGenerator(7, records.Uniform{}, records.Uniform{}, n)
	var sets []*container.Set
	cl.Sim.Spawn("load", func(p *sim.Proc) {
		for _, asu := range cl.ASUs {
			sets = append(sets, container.NewSet("data@"+asu.Name, bte.NewDisk(asu.Disk), params.RecordSize))
		}
		for off := 0; off < n; off += 64 {
			buf := records.NewPooled(64, params.RecordSize)
			gen.Fill(buf)
			sets[(off/64)%len(sets)].Add(p, container.NewPacket(buf))
		}
	})
	must(cl.Sim.Run())

	// Pipeline: per-ASU aggregation, merged at the host. Terabytes in,
	// a handful of summary records out.
	pl := lmas.NewPipeline(cl)
	agg := pl.AddStage("aggregate", cl.ASUs, func() functor.Kernel {
		return functor.NewAggregate(8)
	})
	merged := map[int]functor.AggSummary{}
	sink := pl.AddStage("merge", cl.Hosts, func() functor.Kernel {
		return &functor.Sink{Label: "summaries", Fn: func(ctx *functor.Ctx, pk container.Packet) {
			for i := 0; i < pk.Len(); i++ {
				s := functor.DecodeAgg(pk.Buf.Record(i))
				merged[s.Bucket] = functor.MergeAgg(merged[s.Bucket], s)
			}
			pk.Release() // decoded, not stored
		}}
	})
	agg.ConnectTo(sink, &route.RoundRobin{})
	sink.Terminal()
	for i, set := range sets {
		// Each reader feeds the aggregator on its own ASU.
		pl.AddSource(fmt.Sprintf("read%d", i), cl.ASUs[i], set.Scan(i, false), agg, route.Pin(i))
	}
	elapsed, err := pl.Run()
	must(err)

	var total uint64
	for _, s := range merged {
		total += s.Count
	}
	if total != n {
		panic(fmt.Sprintf("aggregated %d records, want %d", total, n))
	}
	var netBytes int64
	for _, asu := range cl.ASUs {
		_, _, sb, _ := asu.NIC.Stats()
		netBytes += sb
	}
	fmt.Printf("aggregated %d records (%d MB on disk) in %.4fs virtual\n",
		n, n*params.RecordSize/1e6, elapsed.Seconds())
	fmt.Printf("interconnect carried only %.1f KB of summaries (%.4f%% of the data)\n",
		float64(netBytes)/1e3, 100*float64(netBytes)/float64(n*params.RecordSize))
	fmt.Println("per-bucket key statistics (count / mean key / range):")
	for b := 0; b < 8; b++ {
		s := merged[b]
		fmt.Printf("  bucket %d: %6d records, mean %10d, keys [%d, %d]\n",
			b, s.Count, s.Sum/s.Count, s.Min, s.Max)
	}

	// Output:
	// aggregated 131072 records (16 MB on disk) in 0.0553s virtual
	// interconnect carried only 6.1 KB of summaries (0.0366% of the data)
	// per-bucket key statistics (count / mean key / range):
	//   bucket 0:  16383 records, mean  268911105, keys [58765, 536867596]
	//   bucket 1:  16344 records, mean  804100855, keys [536944226, 1073709361]
	//   bucket 2:  16237 records, mean 1342143890, keys [1073750014, 1610544251]
	//   bucket 3:  16339 records, mean 1878059335, keys [1610641920, 2147433594]
	//   bucket 4:  16634 records, mean 2417870361, keys [2147557872, 2684345988]
	//   bucket 5:  16478 records, mean 2950156207, keys [2684373095, 3221214153]
	//   bucket 6:  16485 records, mean 3488503491, keys [3221260409, 3758083926]
	//   bucket 7:  16172 records, mean 4026932424, keys [3758115471, 4294888429]
}

// Watershed analysis of a synthetic terrain on active storage: grid
// restructuring and sorting accelerate on the ASUs while the two
// time-forward passes (watershed coloring, upstream area) stay on the host.
func Example_terraflow() {
	params := lmas.DefaultParams()
	params.Hosts, params.ASUs = 1, 8
	params.RecordSize = terraflow.CellRecordSize
	cl := lmas.NewCluster(params)

	// A 128x128 terrain shaped by five basins.
	g, basins := terraflow.SyntheticBasins(128, 128, 5, 10, 7)

	res, err := terraflow.Run(cl, g, terraflow.DefaultOptions())
	must(err)

	fmt.Printf("terrain: %dx%d cells, %d basins placed\n", g.W, g.H, len(basins))
	fmt.Printf("watersheds found: %d (validated against reference)\n", res.Watersheds)
	fmt.Printf("  step 1  restructure grid -> cell set:  %.4fs (parallel on ASUs)\n",
		res.Restructure.Seconds())
	fmt.Printf("  step 2  sort cells by elevation:       %.4fs (DSM-Sort on ASUs+host)\n",
		res.Sort.Seconds())
	fmt.Printf("  step 3  time-forward coloring:         %.4fs (host only)\n",
		res.Watershed.Seconds())
	fmt.Printf("  flow    time-forward upstream area:    %.4fs (host only)\n",
		res.FlowAccum.Seconds())
	fmt.Printf("  total:                                 %.4fs\n", res.Total().Seconds())

	// Where does each basin's area go? Largest watershed first, ties by the
	// minimum's cell index.
	area := map[uint32]int{}
	for _, c := range res.Colors {
		area[c]++
	}
	minima := slices.SortedFunc(maps.Keys(area), func(a, b uint32) int {
		return cmp.Or(cmp.Compare(area[b], area[a]), cmp.Compare(a, b))
	})
	fmt.Println("watershed areas:")
	for _, color := range minima {
		x, y := int(color)%g.W, int(color)/g.W
		fmt.Printf("  minimum at (%3d,%3d): %5d cells (%.1f%%)\n",
			x, y, area[color], 100*float64(area[color])/float64(g.Cells()))
	}

	// Output:
	// terrain: 128x128 cells, 5 basins placed
	// watersheds found: 3 (validated against reference)
	//   step 1  restructure grid -> cell set:  0.0118s (parallel on ASUs)
	//   step 2  sort cells by elevation:       0.0221s (DSM-Sort on ASUs+host)
	//   step 3  time-forward coloring:         0.0529s (host only)
	//   flow    time-forward upstream area:    0.0188s (host only)
	//   total:                                 0.1056s
	// watershed areas:
	//   minimum at ( 63, 68):  8671 cells (52.9%)
	//   minimum at ( 60,124):  6894 cells (42.1%)
	//   minimum at (122,114):   819 cells (5.0%)
}

// The same spatial index deployed two ways across active storage (paper
// Figure 5) — partitioned subtrees versus striped leaves — showing the
// latency/throughput tradeoff, then how latency grows with the query and what
// online maintenance restores.
func Example_rtree() {
	entries := rtree.GenerateEntries(1<<14, 0.005, 11)

	mk := func(mode rtree.Mode) *lmas.DistributedRTree {
		params := lmas.DefaultParams()
		params.Hosts, params.ASUs = 1, 8
		return rtree.NewDistributed(lmas.NewCluster(params), entries, 16, mode)
	}

	// One large map-rendering scan: latency matters.
	wide := lmas.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.9}
	_, pLat, err := mk(rtree.Partition).QueryOnce(wide)
	must(err)
	_, sLat, err := mk(rtree.Stripe).QueryOnce(wide)
	must(err)

	// Many small lookups from concurrent clients: throughput matters.
	small := rtree.GenerateQueries(128, 0.02, 12)
	_, pQPS, err := mk(rtree.Partition).Throughput(small, 8)
	must(err)
	_, sQPS, err := mk(rtree.Stripe).Throughput(small, 8)
	must(err)

	fmt.Println("distributed R-tree, 16K rectangles on 1 host + 8 ASUs")
	fmt.Printf("  wide scan latency:   partition %.4fs   stripe %.4fs  -> stripe bounds latency\n",
		pLat.Seconds(), sLat.Seconds())
	fmt.Printf("  concurrent lookups:  partition %6.0f qps  stripe %6.0f qps  -> partition wins throughput\n",
		pQPS, sQPS)
	fmt.Println("  every query validated against a brute-force scan")

	// Single-query latency as the query square grows.
	fmt.Println("single-query latency by query side:")
	for _, side := range []float64{0.02, 0.1, 0.4, 0.8} {
		q := lmas.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.1 + side, MaxY: 0.1 + side}
		_, p, err := mk(rtree.Partition).QueryOnce(q)
		must(err)
		_, s, err := mk(rtree.Stripe).QueryOnce(q)
		must(err)
		fmt.Printf("  side %.2f:  partition %.3fms  stripe %.3fms\n", side, p.Seconds()*1e3, s.Seconds()*1e3)
	}

	// Online maintenance (§4.2): inserts land in per-ASU buffers that slow
	// queries down until the ASUs fold them into their subtrees in parallel.
	dt := mk(rtree.Partition)
	probe := lmas.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.32, MaxY: 0.32}
	_, clean, err := dt.QueryOnce(probe)
	must(err)
	extra := rtree.GenerateEntries(len(entries)/4, 0.005, 13)
	for i := range extra {
		extra[i].ID += 1 << 20 // distinct from the bulk-loaded ids
	}
	_, err = dt.InsertBatch(extra)
	must(err)
	_, degraded, err := dt.QueryOnce(probe)
	must(err)
	asuMaint, err := dt.Maintain()
	must(err)
	_, restored, err := dt.QueryOnce(probe)
	must(err)
	fmt.Printf("online maintenance (%d inserts): query %.3fms clean -> %.3fms buffered -> %.3fms after %.3fms of parallel ASU maintenance\n",
		len(extra), clean.Seconds()*1e3, degraded.Seconds()*1e3,
		restored.Seconds()*1e3, asuMaint.Seconds()*1e3)

	// Output:
	// distributed R-tree, 16K rectangles on 1 host + 8 ASUs
	//   wide scan latency:   partition 0.0065s   stripe 0.0063s  -> stripe bounds latency
	//   concurrent lookups:  partition    846 qps  stripe    200 qps  -> partition wins throughput
	//   every query validated against a brute-force scan
	// single-query latency by query side:
	//   side 0.02:  partition 5.081ms  stripe 5.047ms
	//   side 0.10:  partition 5.223ms  stripe 5.074ms
	//   side 0.40:  partition 5.746ms  stripe 5.363ms
	//   side 0.80:  partition 6.494ms  stripe 6.283ms
	// online maintenance (4096 inserts): query 5.094ms clean -> 5.196ms buffered -> 5.084ms after 18.466ms of parallel ASU maintenance
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
