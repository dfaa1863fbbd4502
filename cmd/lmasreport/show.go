package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"lmas/internal/loadmgr"
	"lmas/internal/plot"
	"lmas/internal/sim"
	"lmas/internal/telemetry"
)

func runShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	svgOut := fs.String("svg", "", "write a utilization-vs-time SVG plot (Figure-10 style)")
	all := fs.Bool("all", false, "plot every node CPU, not just hosts (capped at 8 series)")
	files := parseMixed(fs, args)
	if len(files) != 1 {
		return fmt.Errorf("show: want exactly one report file, have %d", len(files))
	}
	tr, err := telemetry.ReadFile(files[0])
	if err != nil {
		return err
	}
	for i, rep := range tr.Runs {
		if i > 0 {
			fmt.Println()
		}
		showReport(rep)
	}
	if *svgOut != "" {
		if len(tr.Runs) != 1 {
			return fmt.Errorf("show: -svg needs a single-run report, file has %d runs", len(tr.Runs))
		}
		svg, err := utilSVG(tr.Runs[0], *all)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*svgOut, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Printf("utilization plot -> %s\n", *svgOut)
	}
	return nil
}

func showReport(rep *telemetry.RunReport) {
	cfg := rep.Config
	t := plot.NewTable(fmt.Sprintf("Run %q (seed %d)", rep.Name, rep.Seed), "field", "value")
	t.AddRow("runtime", fmt.Sprintf("%.4fs", rep.RuntimeSec))
	t.AddRow("cluster", fmt.Sprintf("%d host(s) + %d ASU(s), c=%g", cfg.Hosts, cfg.ASUs, cfg.C))
	t.AddRow("host rating", fmt.Sprintf("%.0f ops/s", cfg.HostOpsPerSec))
	t.AddRow("disk", fmt.Sprintf("%.0f MB/s, %.1fms seek", cfg.DiskRateMBps, cfg.DiskSeekMs))
	t.AddRow("network", fmt.Sprintf("%.0f MB/s, %.0fus latency", cfg.NetMBps, cfg.NetLatencyUs))
	t.AddRow("record size", cfg.RecordSize)
	for _, k := range sortedKeys(rep.Workload) {
		t.AddRow("workload."+k, fmt.Sprint(rep.Workload[k]))
	}
	fmt.Println(t)

	if len(rep.Nodes) > 0 {
		t := plot.NewTable("Utilization per node (mean / peak)",
			"node", "kind", "cpu", "disk", "nic")
		var hostCPU, asuCPU [][]float64
		for _, n := range rep.Nodes {
			t.AddRow(n.Name, n.Kind, meanPeakOf(n.CPU), meanPeakOf(n.Disk), meanPeakOf(n.NIC))
			if n.CPU != nil {
				switch n.Kind {
				case "host":
					hostCPU = append(hostCPU, n.CPU.Util)
				case "asu":
					asuCPU = append(asuCPU, n.CPU.Util)
				}
			}
		}
		fmt.Println(t)
		if imb := loadmgr.ImbalanceSeries(hostCPU, 0); len(hostCPU) >= 2 {
			fmt.Printf("host CPU imbalance (mean utilization spread): %.3f\n", imb)
		}
		if imb := loadmgr.ImbalanceSeries(asuCPU, 0); len(asuCPU) >= 2 {
			fmt.Printf("ASU CPU imbalance (mean utilization spread): %.3f\n", imb)
		}
	}
	showPoolHealth(rep)
	showQueues(rep)
	if len(rep.Counters) > 0 {
		t := plot.NewTable("Counters", "name", "value")
		for _, c := range rep.Counters {
			t.AddRow(c.Name, c.Value)
		}
		fmt.Println(t)
	}
	if len(rep.Latencies) > 0 {
		t := plot.NewTable("Latency & service-time distributions (milliseconds)",
			"name", "count", "p50", "p90", "p99", "p99.9", "max")
		for _, l := range rep.Latencies {
			t.AddRow(l.Name, l.Count,
				fmt.Sprintf("%.3f", msec(l.P50Ns)), fmt.Sprintf("%.3f", msec(l.P90Ns)),
				fmt.Sprintf("%.3f", msec(l.P99Ns)), fmt.Sprintf("%.3f", msec(l.P999Ns)),
				fmt.Sprintf("%.3f", msec(l.MaxNs)))
		}
		fmt.Println(t)
	}
	if rep.SLO != nil {
		showSLO(rep)
	}
	if len(rep.Decisions) > 0 {
		fmt.Println("Load-manager decision log:")
		for _, d := range rep.Decisions {
			fmt.Printf("  t=%.3fs  %s  %s: %s\n",
				(sim.Duration(d.T)).Seconds(), d.Source, d.Action, d.Detail)
			for _, r := range d.Readings {
				fmt.Printf("           %s = %.4g\n", r.Key, r.Value)
			}
		}
	}
}

func msec(ns int64) float64 { return float64(ns) / 1e6 }

// showSLO renders the deadline ladder an open-loop run exports: for each
// horizon (multiples of the base timeout), how many jobs missed it, which
// resource class dominated the missed jobs' time, and the full blame mix.
func showSLO(rep *telemetry.RunReport) {
	s := rep.SLO
	t := plot.NewTable(
		fmt.Sprintf("SLO ladder for run %q (base deadline %.1fms, goodput %.1f jobs/s)",
			rep.Name, msec(s.TimeoutNs), s.GoodputPerSec),
		"horizon", "deadline(ms)", "misses", "dominant", "blame mix")
	for _, h := range s.Horizons {
		mix := "-"
		if len(h.Blame) > 0 {
			parts := make([]string, 0, len(h.Blame))
			for i, b := range h.Blame {
				if i >= 3 && b.Share < 0.05 {
					break
				}
				parts = append(parts, fmt.Sprintf("%s@%s %.0f%%", b.Class, b.Node, b.Share*100))
			}
			mix = strings.Join(parts, ", ")
		}
		dom := h.Dominant
		if dom == "" {
			dom = "-"
		}
		t.AddRow(h.Horizon, fmt.Sprintf("%.1f", msec(h.DeadlineNs)), h.Misses, dom, mix)
	}
	fmt.Println(t)
}

func meanPeakOf(s *telemetry.UtilSeries) string {
	if s == nil {
		return "-"
	}
	peak := 0.0
	for _, u := range s.Util {
		if u > peak {
			peak = u
		}
	}
	return fmt.Sprintf("%.3f / %.3f", s.Mean, peak)
}

// lastGauge returns a gauge's final sample value by exact name.
func lastGauge(rep *telemetry.RunReport, name string) (float64, bool) {
	for _, g := range rep.Gauges {
		if g.Name == name && len(g.Samples) > 0 {
			return g.Samples[len(g.Samples)-1].V, true
		}
	}
	return 0, false
}

// showPoolHealth renders the bufpool.<size>.* gauges dsmsort -report emits:
// per-size-class draws, free-list hit rate, leftover in-use count, and the
// peak simultaneous demand.
func showPoolHealth(rep *telemetry.RunReport) {
	var sizes []int
	for _, g := range rep.Gauges {
		var size int
		if n, _ := fmt.Sscanf(g.Name, "bufpool.%d.gets", &size); n == 1 {
			sizes = append(sizes, size)
		}
	}
	if len(sizes) == 0 {
		return
	}
	sort.Ints(sizes)
	t := plot.NewTable("Buffer-pool health per size class",
		"size(B)", "gets", "hit-rate", "in-use", "high-water")
	for _, size := range sizes {
		prefix := fmt.Sprintf("bufpool.%d.", size)
		gets, _ := lastGauge(rep, prefix+"gets")
		hits, _ := lastGauge(rep, prefix+"hits")
		inUse, _ := lastGauge(rep, prefix+"in_use")
		high, _ := lastGauge(rep, prefix+"high_water")
		rate := 0.0
		if gets > 0 {
			rate = hits / gets
		}
		t.AddRow(size, int64(gets), fmt.Sprintf("%.1f%%", rate*100), int64(inUse), int64(high))
	}
	fmt.Println(t)
}

// showQueues renders the queue.<name>.* gauges: each simulation queue's
// cumulative packet wait and occupancy high-water mark.
func showQueues(rep *telemetry.RunReport) {
	var names []string
	for _, g := range rep.Gauges {
		if rest, ok := strings.CutPrefix(g.Name, "queue."); ok {
			if name, ok := strings.CutSuffix(rest, ".wait_sec"); ok {
				names = append(names, name)
			}
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	t := plot.NewTable("Queue wait per queue", "queue", "cum-wait(s)", "high-water")
	for _, name := range names {
		wait, _ := lastGauge(rep, "queue."+name+".wait_sec")
		high, _ := lastGauge(rep, "queue."+name+".high_water")
		t.AddRow(name, fmt.Sprintf("%.4f", wait), int64(high))
	}
	fmt.Println(t)
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
