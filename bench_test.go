// Benchmarks regenerating the paper's evaluation (one benchmark per figure
// and table; see DESIGN.md's experiment index and EXPERIMENTS.md for the
// recorded results). The interesting output is the custom metrics —
// speedup, imbalance, qps, virtual seconds — not ns/op, since each
// "operation" is a whole emulated experiment at a reduced input size.
//
// Run with:
//
//	go test -bench=. -benchmem
package lmas_test

import (
	"testing"

	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/experiments"
	"lmas/internal/extsort"
	"lmas/internal/records"
	"lmas/internal/rtree"
	"lmas/internal/sim"
	"lmas/internal/terraflow"
)

// benchN is the record count used by the sort benchmarks: large enough for
// steady-state pipelining, small enough to keep the full suite quick.
const benchN = 1 << 16

// BenchmarkFig9 regenerates Figure 9 cells: run-formation speedup of active
// versus conventional placement, per ASU count and distribute order.
func BenchmarkFig9(b *testing.B) {
	cases := []struct{ asus, alpha int }{
		{2, 1}, {2, 256},
		{8, 16},
		{16, 1}, {16, 256},
		{64, 64}, {64, 256},
	}
	for _, c := range cases {
		c := c
		b.Run(benchName("asus", c.asus, "alpha", c.alpha), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				speedup = measureSpeedup(b, c.asus, c.alpha)
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

func measureSpeedup(b *testing.B, asus, alpha int) float64 {
	b.Helper()
	elapsed := func(p dsmsort.Placement) float64 {
		params := cluster.DefaultParams()
		params.Hosts, params.ASUs, params.C = 1, asus, 8
		cl := cluster.New(params)
		in := dsmsort.MakeInput(cl, benchN, records.Uniform{}, 42, 32)
		cfg := dsmsort.Config{Alpha: alpha, Beta: 64, Gamma2: 2,
			PacketRecords: 32, Placement: p, Seed: 42}
		_, r, err := dsmsort.RunFormation(cl, cfg, in)
		if err != nil {
			b.Fatal(err)
		}
		return r.Elapsed.Seconds()
	}
	return elapsed(dsmsort.Conventional) / elapsed(dsmsort.Active)
}

// BenchmarkFig10 regenerates Figure 10: the skewed workload under static
// and load-managed routing, reporting run time and host imbalance.
func BenchmarkFig10(b *testing.B) {
	opt := experiments.DefaultFig10Options()
	opt.N = benchN
	opt.Window = 25 * sim.Millisecond
	for _, which := range []string{"static", "managed"} {
		which := which
		b.Run(which, func(b *testing.B) {
			var run experiments.Fig10Run
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunFig10(opt)
				if err != nil {
					b.Fatal(err)
				}
				if which == "static" {
					run = res.Static
				} else {
					run = res.Managed
				}
			}
			b.ReportMetric(run.Elapsed.Seconds(), "virtual-s")
			b.ReportMetric(run.Imbalance, "imbalance")
		})
	}
}

// BenchmarkCRatio regenerates TAB-C: sensitivity to the host/ASU power
// ratio c at a fixed ASU count.
func BenchmarkCRatio(b *testing.B) {
	for _, c := range []float64{4, 8} {
		c := c
		b.Run(benchName("c", int(c)), func(b *testing.B) {
			row := experiments.CRatioRow{Spec: experiments.NewSpec(benchN/2, 8, 64, 32), Cs: []float64{c}}
			for i := 0; i < b.N; i++ {
				row = measureRow(b, experiments.CRatio, row)
			}
			b.ReportMetric(row.Speedups[0], "speedup")
		})
	}
}

// BenchmarkGammaSplit regenerates TAB-GAMMA: the merge pass under different
// γ2 splits between ASUs and hosts.
func BenchmarkGammaSplit(b *testing.B) {
	for _, g2 := range []int{2, 8, 32} {
		g2 := g2
		b.Run(benchName("gamma2", g2), func(b *testing.B) {
			row := experiments.GammaRow{Spec: experiments.NewSpec(benchN/4, 8, 8, 64)}
			row.Sort.Gamma2 = g2
			for i := 0; i < b.N; i++ {
				row = measureRow(b, experiments.Gamma, row)
			}
			b.ReportMetric(row.Merge.Elapsed.Seconds(), "virtual-s")
			b.ReportMetric(float64(row.Merge.ASUMergeLevels), "asu-levels")
		})
	}
}

// BenchmarkRouting regenerates TAB-ROUTE: routing policies under the skewed
// Figure 10 workload.
func BenchmarkRouting(b *testing.B) {
	for _, policy := range []string{"static", "round-robin", "sr", "load-aware"} {
		policy := policy
		b.Run(policy, func(b *testing.B) {
			f10 := experiments.DefaultFig10Options()
			f10.N, f10.Window = benchN, 25*sim.Millisecond
			row := experiments.RoutingRow{Spec: f10.Spec(), Policy: policy, SkewMean: f10.SkewMean}
			for i := 0; i < b.N; i++ {
				row = measureRow(b, experiments.Routing, row)
			}
			b.ReportMetric(row.Elapsed.Seconds(), "virtual-s")
			b.ReportMetric(row.Imbalance, "imbalance")
		})
	}
}

// BenchmarkRTree regenerates TAB-RTREE: partitioned vs striped distributed
// R-trees on wide-scan latency and concurrent-lookup throughput.
func BenchmarkRTree(b *testing.B) {
	for _, mode := range []rtree.Mode{rtree.Partition, rtree.Stripe} {
		mode := mode
		entries := rtree.GenerateEntries(1<<13, 0.005, 7)
		mk := func() *rtree.Distributed {
			params := cluster.DefaultParams()
			params.Hosts, params.ASUs = 1, 8
			return rtree.NewDistributed(cluster.New(params), entries, 16, mode)
		}
		b.Run(mode.String()+"/latency", func(b *testing.B) {
			var lat sim.Duration
			for i := 0; i < b.N; i++ {
				var err error
				_, lat, err = mk().QueryOnce(rtree.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.9})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(lat.Seconds()*1e3, "virtual-ms")
		})
		b.Run(mode.String()+"/throughput", func(b *testing.B) {
			queries := rtree.GenerateQueries(64, 0.02, 8)
			var qps float64
			for i := 0; i < b.N; i++ {
				var err error
				_, qps, err = mk().Throughput(queries, 8)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(qps, "virtual-qps")
		})
	}
}

// BenchmarkTerraFlow regenerates TAB-TERRA: the watershed phase breakdown
// with and without active storage.
func BenchmarkTerraFlow(b *testing.B) {
	for _, placement := range []dsmsort.Placement{dsmsort.Active, dsmsort.Conventional} {
		placement := placement
		b.Run(placement.String(), func(b *testing.B) {
			var res *terraflow.Result
			for i := 0; i < b.N; i++ {
				params := cluster.DefaultParams()
				params.Hosts, params.ASUs = 1, 8
				params.RecordSize = terraflow.CellRecordSize
				cl := cluster.New(params)
				g, _ := terraflow.SyntheticBasins(96, 96, 4, 10, 42)
				opt := terraflow.DefaultOptions()
				opt.Placement = placement
				var err error
				res, err = terraflow.Run(cl, g, opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Restructure.Seconds()*1e3, "restructure-ms")
			b.ReportMetric(res.Sort.Seconds()*1e3, "sort-ms")
			b.ReportMetric(res.Watershed.Seconds()*1e3, "watershed-ms")
			b.ReportMetric(res.FlowAccum.Seconds()*1e3, "flow-ms")
		})
	}
}

// BenchmarkFullSort regenerates TAB-PASS: the complete two-pass DSM-Sort
// ("two passes are sufficient in practice") with validated output, compared
// against the host-only external mergesort.
func BenchmarkFullSort(b *testing.B) {
	b.Run("dsmsort", func(b *testing.B) {
		var total sim.Duration
		for i := 0; i < b.N; i++ {
			params := cluster.DefaultParams()
			params.Hosts, params.ASUs = 1, 8
			cl := cluster.New(params)
			in := dsmsort.MakeInput(cl, benchN/2, records.Uniform{}, 42, 64)
			res, err := dsmsort.Sort(cl, dsmsort.Config{
				Alpha: 16, Beta: 64, Gamma2: 32, PacketRecords: 64,
				Placement: dsmsort.Active, Seed: 42,
			}, in)
			if err != nil {
				b.Fatal(err)
			}
			total = res.Elapsed
		}
		b.ReportMetric(total.Seconds(), "virtual-s")
	})
	b.Run("extsort", func(b *testing.B) {
		var total sim.Duration
		for i := 0; i < b.N; i++ {
			params := cluster.DefaultParams()
			params.Hosts, params.ASUs = 1, 8
			cl := cluster.New(params)
			in := dsmsort.MakeInput(cl, benchN/2, records.Uniform{}, 42, 64)
			res, err := extsort.Sort(cl, extsort.Config{MemRecords: 1024, FanIn: 16}, in)
			if err != nil {
				b.Fatal(err)
			}
			total = res.Elapsed
		}
		b.ReportMetric(total.Seconds(), "virtual-s")
	})
}

// BenchmarkIsolation regenerates TAB-ISO: foreground request tail latency
// with and without performance isolation of co-resident functor work.
func BenchmarkIsolation(b *testing.B) {
	for _, quantum := range []sim.Duration{0, 100 * sim.Microsecond} {
		quantum := quantum
		name := "off"
		if quantum > 0 {
			name = "quantum-100us"
		}
		b.Run(name, func(b *testing.B) {
			row := experiments.IsolationRow{Spec: experiments.NewSpec(benchN/2, 4, 16, 1024)}
			row.Params.IsolationQuantum = quantum
			for i := 0; i < b.N; i++ {
				row = measureRow(b, experiments.Isolation, row)
			}
			b.ReportMetric(row.P99.Seconds()*1e3, "p99-ms")
			b.ReportMetric(row.SortSecs, "sort-virtual-s")
		})
	}
}

// BenchmarkHybrid regenerates TAB-HYBRID: the functor-migration placement
// against the static ones.
func BenchmarkHybrid(b *testing.B) {
	for _, d := range []int{2, 16} {
		d := d
		b.Run(benchName("asus", d), func(b *testing.B) {
			row := experiments.HybridRow{Spec: experiments.NewSpec(benchN, d, 64, 32)}
			for i := 0; i < b.N; i++ {
				row = measureRow(b, experiments.Hybrid, row)
			}
			b.ReportMetric(row.Active, "active-speedup")
			b.ReportMetric(row.Hybrid, "hybrid-speedup")
		})
	}
}

// BenchmarkPacketSize regenerates TAB-PACKET.
func BenchmarkPacketSize(b *testing.B) {
	for _, pr := range []int{4, 64, 1024} {
		pr := pr
		b.Run(benchName("packet", pr), func(b *testing.B) {
			row := experiments.PacketRow{Spec: experiments.NewSpec(benchN, 8, 16, pr)}
			for i := 0; i < b.N; i++ {
				row = measureRow(b, experiments.Packet, row)
			}
			b.ReportMetric(row.Pass1Secs, "virtual-s")
			b.ReportMetric(row.OverheadFrac*100, "net-overhead-%")
		})
	}
}

// BenchmarkAdapt regenerates TAB-ADAPT: mid-run policy adaptation under
// the skewed Figure 10 workload.
func BenchmarkAdapt(b *testing.B) {
	for _, strategy := range []string{"static", "adaptive", "sr"} {
		strategy := strategy
		b.Run(strategy, func(b *testing.B) {
			f10 := experiments.DefaultFig10Options()
			f10.N, f10.Window = benchN, 50*sim.Millisecond
			row := experiments.AdaptRow{Spec: f10.Spec(), Strategy: strategy, SkewMean: f10.SkewMean, Threshold: 0.25}
			for i := 0; i < b.N; i++ {
				row = measureRow(b, experiments.Adapt, row)
			}
			b.ReportMetric(row.Elapsed.Seconds(), "virtual-s")
			b.ReportMetric(row.Imbalance, "imbalance")
		})
	}
}

// BenchmarkFilter regenerates TAB-FILTER: the selection-scan pushdown on a
// bandwidth-constrained interconnect.
func BenchmarkFilter(b *testing.B) {
	for _, sel := range []float64{0.01, 1.0} {
		sel := sel
		name := "sel=0.01"
		if sel == 1.0 {
			name = "sel=1.00"
		}
		b.Run(name, func(b *testing.B) {
			row := experiments.FilterRow{Spec: experiments.NewSpec(benchN/2, 8, 0, 64), Selectivity: sel}
			row.Params.NetBandwidth = 60e6
			for i := 0; i < b.N; i++ {
				row = measureRow(b, experiments.Filter, row)
			}
			b.ReportMetric(row.ConvSecs/row.ActiveSecs, "pushdown-speedup")
			b.ReportMetric(row.ActiveNetMB, "active-net-MB")
			b.ReportMetric(row.ConvNetMB, "conv-net-MB")
		})
	}
}

// BenchmarkOnePass regenerates TAB-ONEPASS below the memory wall.
func BenchmarkOnePass(b *testing.B) {
	row := experiments.OnePassRow{Spec: experiments.NewSpec(1<<13, 8, 16, 64)}
	row.Params.Hosts, row.Params.HostMemRecords, row.Sort.Gamma2 = 2, 1<<13, 16
	for i := 0; i < b.N; i++ {
		row = measureRow(b, experiments.OnePass, row)
	}
	b.ReportMetric(row.OnePassSecs, "onepass-virtual-s")
	b.ReportMetric(row.DSMSecs, "dsmsort-virtual-s")
}

// BenchmarkOpenLoopChurn regenerates TAB-CHURN: the open-loop Poisson job
// stream over short-lived procs. Each op is 100k arrivals — 100k proc
// lifecycles and two million scheduled events (a 20-horizon deadline ladder
// per job, CPU/disk/net charges, queue handoffs), with over a million
// timers in flight at the arrival-phase peak — so ns/op here tracks the
// raw kernel churn cost: the timer tier, proc recycling, and batched queue
// drains. The custom metrics confirm the run stays at its operating point.
func BenchmarkOpenLoopChurn(b *testing.B) {
	opt := experiments.DefaultOpenLoopOptions()
	opt.Jobs = 100000
	opt.Timeout = 2 * sim.Second
	opt.Deadlines = 20
	var res *experiments.OpenLoopResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunOpenLoop(opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != opt.Jobs {
			b.Fatalf("completed %d of %d jobs", res.Completed, opt.Jobs)
		}
	}
	b.ReportMetric(res.Goodput, "virtual-jobs/s")
	b.ReportMetric(res.P99.Seconds()*1e3, "p99-virtual-ms")
	b.ReportMetric(float64(res.Misses), "slo-misses")
}

// BenchmarkWorkEquation regenerates TAB-WORK: measured CPU work tracks the
// paper's n·log(αβγ) equation across configurations with αβγ fixed.
func BenchmarkWorkEquation(b *testing.B) {
	for _, cfg := range []struct{ alpha, beta, gamma2 int }{
		{4, 256, 16}, {16, 64, 16}, {64, 16, 16},
	} {
		cfg := cfg
		b.Run(benchName("a", cfg.alpha, "b", cfg.beta), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				params := cluster.DefaultParams()
				params.Hosts, params.ASUs = 1, 4
				cl := cluster.New(params)
				in := dsmsort.MakeInput(cl, benchN/4, records.Uniform{}, 42, 64)
				c := dsmsort.Config{Alpha: cfg.alpha, Beta: cfg.beta, Gamma2: cfg.gamma2,
					PacketRecords: 64, Placement: dsmsort.Active, Seed: 42}
				res, err := dsmsort.Sort(cl, c, in)
				if err != nil {
					b.Fatal(err)
				}
				host, asu := res.MeasuredWork()
				predicted := c.TotalCompares(benchN/4, len(cl.ASUs))
				// Measured ops include per-record handling; the
				// comparison work dominates their variation, so the
				// ratio should stay in a narrow band as alpha/beta
				// trade off (the equation's point).
				ratio = (host + asu) / predicted
			}
			b.ReportMetric(ratio, "ops-per-compare")
		})
	}
}

// measureRow runs one table row's function, failing b on an error.
func measureRow[R any](b *testing.B, f func(R) (R, error), row R) R {
	b.Helper()
	row, err := f(row)
	if err != nil {
		b.Fatal(err)
	}
	return row
}

func benchName(parts ...any) string {
	s := ""
	for i := 0; i+1 < len(parts); i += 2 {
		if s != "" {
			s += "-"
		}
		s += parts[i].(string)
		switch v := parts[i+1].(type) {
		case int:
			s += "=" + itoa(v)
		}
	}
	return s
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
