package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"lmas/internal/critpath"
	"lmas/internal/plot"
	"lmas/internal/telemetry"
)

// runCritpath renders the latency-attribution section of a report: the
// bottleneck verdict, the critical path's class shares, and the full
// per-stage × per-node waterfall. It exits non-zero when the report has no
// critpath section or the waterfall is empty, so CI can gate on it.
func runCritpath(args []string) error {
	fs := flag.NewFlagSet("critpath", flag.ExitOnError)
	svgOut := fs.String("svg", "", "write a per-node stacked attribution SVG")
	files := parseMixed(fs, args)
	if len(files) != 1 {
		return fmt.Errorf("critpath: want exactly one report file, have %d", len(files))
	}
	tr, err := telemetry.ReadFile(files[0])
	if err != nil {
		return err
	}
	shown := 0
	var svgRep *telemetry.RunReport
	for _, rep := range tr.Runs {
		if rep.Critpath == nil {
			continue
		}
		if len(rep.Critpath.Waterfall) == 0 {
			return fmt.Errorf("critpath: run %q has an empty attribution waterfall", rep.Name)
		}
		if shown > 0 {
			fmt.Println()
		}
		showCritpath(rep)
		shown++
		svgRep = rep
	}
	if shown == 0 {
		return fmt.Errorf("critpath: %s has no critpath section (was the run made with -critpath?)", files[0])
	}
	if *svgOut != "" {
		if shown != 1 {
			return fmt.Errorf("critpath: -svg needs a single profiled run, file has %d", shown)
		}
		svg := critpathSVG(svgRep)
		if err := os.WriteFile(*svgOut, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Printf("attribution plot -> %s\n", *svgOut)
	}
	return nil
}

func showCritpath(rep *telemetry.RunReport) {
	cp := rep.Critpath
	v := cp.Verdict
	fmt.Printf("Run %q: %d chains, %d charges\n", rep.Name, cp.Chains, cp.Charges)
	fmt.Printf("  observed bottleneck:  %s (%.1f%% of per-instance congestion)\n",
		v.Observed, v.ObservedShare*100)
	if v.Predicted != "" {
		fmt.Printf("  predicted bottleneck: %s (%.4g rec/s limiting) — agreement: %s\n",
			v.Predicted, v.PredictedRate, v.Agree)
	}

	if len(cp.Blame) > 0 {
		t := plot.NewTable("Blame: attributed packet latency across all chains",
			"class", "time(s)", "share", "instances", "per-instance(s)")
		for _, c := range cp.Blame {
			if c.Ns == 0 {
				continue
			}
			per := "-"
			if c.Instances > 0 {
				per = fmt.Sprintf("%.4f", sec(c.Ns)/float64(c.Instances))
			}
			t.AddRow(c.Class, fmt.Sprintf("%.4f", sec(c.Ns)),
				fmt.Sprintf("%.1f%%", c.Share*100), c.Instances, per)
		}
		fmt.Println(t)
	}

	p := cp.Path
	t := plot.NewTable(
		fmt.Sprintf("Critical path: %d hop(s), span %.4fs (%.4fs attributed, %.4fs gap)",
			p.Hops, sec(p.SpanNs), sec(p.AttributedNs), sec(p.GapNs)),
		"class", "time(s)", "share")
	for _, c := range p.Classes {
		if c.Ns == 0 {
			continue
		}
		t.AddRow(c.Class, fmt.Sprintf("%.6f", sec(c.Ns)), fmt.Sprintf("%.1f%%", c.Share*100))
	}
	fmt.Println(t)

	t = plot.NewTable("Attribution waterfall (seconds of virtual time)",
		"stage", "node", "cpu", "disk", "net", "queue-wait", "cond-wait", "total")
	for _, w := range cp.Waterfall {
		t.AddRow(w.Stage, w.Node,
			fmt.Sprintf("%.4f", sec(w.CPUNs)), fmt.Sprintf("%.4f", sec(w.DiskNs)),
			fmt.Sprintf("%.4f", sec(w.NetNs)), fmt.Sprintf("%.4f", sec(w.QueueWaitNs)),
			fmt.Sprintf("%.4f", sec(w.CondWaitNs)), fmt.Sprintf("%.4f", sec(w.TotalNs())))
	}
	fmt.Println(t)
}

func sec(ns int64) float64 { return float64(ns) / 1e9 }

// kindSegments is the stacked-bar order and ink for the five charge kinds;
// color follows the kind across every bar.
var kindSegments = []struct {
	name  string
	color string
	ns    func(critpath.WaterfallRow) int64
}{
	{"cpu", plot.SeriesColors[0], func(w critpath.WaterfallRow) int64 { return w.CPUNs }},
	{"disk", plot.SeriesColors[1], func(w critpath.WaterfallRow) int64 { return w.DiskNs }},
	{"net", plot.SeriesColors[2], func(w critpath.WaterfallRow) int64 { return w.NetNs }},
	{"queue-wait", plot.SeriesColors[3], func(w critpath.WaterfallRow) int64 { return w.QueueWaitNs }},
	{"cond-wait", plot.SeriesColors[4], func(w critpath.WaterfallRow) int64 { return w.CondWaitNs }},
}

// critpathSVG renders one stacked horizontal bar per node: where that node's
// procs spent their attributed virtual time, by charge kind. Nodes follow the
// report's node order (hosts first), so the plot lines up with the
// utilization tables.
func critpathSVG(rep *telemetry.RunReport) string {
	byNode := make(map[string]critpath.WaterfallRow)
	for _, w := range rep.Critpath.Waterfall {
		agg := byNode[w.Node]
		agg.Node = w.Node
		agg.CPUNs += w.CPUNs
		agg.DiskNs += w.DiskNs
		agg.NetNs += w.NetNs
		agg.QueueWaitNs += w.QueueWaitNs
		agg.CondWaitNs += w.CondWaitNs
		byNode[w.Node] = agg
	}
	var order []string
	for _, n := range rep.Nodes {
		if _, ok := byNode[n.Name]; ok {
			order = append(order, n.Name)
		}
	}
	// Nodes the report section missed (raw-proc stages on unlisted nodes)
	// follow in name order so every waterfall row is represented.
	var extra []string
	for name := range byNode {
		seen := false
		for _, o := range order {
			if o == name {
				seen = true
				break
			}
		}
		if !seen {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	order = append(order, extra...)

	maxNs := int64(1)
	for _, name := range order {
		if t := byNode[name].TotalNs(); t > maxNs {
			maxNs = t
		}
	}

	rowH, gap := 22, 8
	topH := plot.PadT + 10
	h := topH + len(order)*(rowH+gap) + plot.PadB
	plotW := float64(plot.W - plot.PadL - plot.PadR)

	var b strings.Builder
	plot.Open(&b, plot.W, h)
	plot.Title(&b, fmt.Sprintf("Latency attribution by node — run %q", rep.Name))

	for i, name := range order {
		w := byNode[name]
		y := topH + i*(rowH+gap)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" fill="%s" text-anchor="end">%s</text>`+"\n",
			plot.PadL-8, y+rowH/2+4, plot.InkSecond, name)
		x := float64(plot.PadL)
		for _, seg := range kindSegments {
			ns := seg.ns(w)
			if ns == 0 {
				continue
			}
			wd := float64(ns) / float64(maxNs) * plotW
			fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"/>`+"\n",
				x, y, wd, rowH, seg.color)
			x += wd
		}
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="11" fill="%s">%.3fs</text>`+"\n",
			x+6, y+rowH/2+4, plot.InkMuted, sec(w.TotalNs()))
	}

	lx, ly := plot.W-plot.PadR+14, topH
	for i, seg := range kindSegments {
		plot.LegendSwatch(&b, lx, ly+i*18, seg.color, seg.name)
	}
	plot.Close(&b)
	return b.String()
}
