// Offload: the canonical active-storage pattern — filtering and
// aggregation at the storage units, so a scan over the full data set sends
// only matches and summaries across the interconnect.
//
//	go run ./examples/offload
package main

import (
	"fmt"
	"log"

	"lmas"
	"lmas/internal/bte"
	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/functor"
	"lmas/internal/records"
	"lmas/internal/route"
	"lmas/internal/sim"
)

func main() {
	const n = 1 << 17
	params := lmas.DefaultParams()
	params.Hosts, params.ASUs = 1, 8
	params.NetBandwidth = 60e6 // a constrained interconnect: offload matters
	cl := cluster.New(params)

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
	if err := cl.Sim.Run(); err != nil {
		log.Fatal(err)
	}

	// Pipeline: per-ASU aggregation, merged at the host. Terabytes in,
	// a handful of summary records out.
	pl := functor.NewPipeline(cl)
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
		i := i
		pl.AddSource(fmt.Sprintf("read%d", i), cl.ASUs[i], set.Scan(i, false), agg, pinned(i))
	}
	elapsed, err := pl.Run()
	if err != nil {
		log.Fatal(err)
	}

	var total uint64
	for _, s := range merged {
		total += s.Count
	}
	if total != n {
		log.Fatalf("aggregated %d records, want %d", total, n)
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
}

// pinned routes everything to endpoint i (each reader feeds its local ASU).
type pinned int

func (pinned) Name() string                                       { return "pinned" }
func (f pinned) Pick(pk route.PacketInfo, e []route.Endpoint) int { return int(f) % len(e) }
