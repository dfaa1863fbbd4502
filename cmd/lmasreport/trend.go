package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lmas/internal/plot"
	"lmas/internal/recorder"
)

// runTrend answers "how has this metric moved across revisions":
//
//	lmasreport trend STORE -metric NAME [-experiment E] [-name CELL] [-svg OUT.svg]
//
// It walks the store's finished runs in (start time, run ID) order, groups
// them by the git_rev header key (groups ordered by each revision's first
// appearance), and prints one row per run with the metric resolved the same
// way `query metric` resolves it — runtime_sec, a counter's value, a gauge's
// final sample, or a latency histogram's count with p50/p99. With -svg it
// also renders the cross-run trend as a sparkline with revision boundaries
// marked.
func runTrend(args []string) error {
	fs := flag.NewFlagSet("trend", flag.ExitOnError)
	metric := fs.String("metric", "", "instrument name to track (required); runtime_sec tracks run time")
	exp := fs.String("experiment", "", "only this experiment")
	cell := fs.String("name", "", "only runs of this cell name")
	svgOut := fs.String("svg", "", "also write a trend sparkline SVG")
	pos := parseMixed(fs, args)
	if len(pos) != 1 {
		return fmt.Errorf("trend: want exactly one STORE directory")
	}
	if *metric == "" {
		return fmt.Errorf("trend: -metric NAME is required")
	}
	st, err := openStoreRead(pos[0])
	if err != nil {
		return err
	}
	runs, err := st.Runs()
	if err = warnSkipped(err); err != nil {
		return err
	}

	type point struct {
		run  *recorder.RunRecord
		kind string
		v    float64
		p50  float64
		p99  float64
	}
	// Group by revision, groups in first-appearance order; runs are already
	// time-ordered, so within a group points stay chronological.
	var revs []string
	byRev := make(map[string][]point)
	for _, run := range runs {
		h := run.Header
		if *exp != "" && h.Experiment != *exp {
			continue
		}
		if *cell != "" && h.Name != *cell {
			continue
		}
		rep := run.Report()
		if rep == nil {
			continue
		}
		kind, v, p50, p99, ok := metricOf(rep, *metric)
		if !ok {
			continue
		}
		if _, seen := byRev[h.GitRev]; !seen {
			revs = append(revs, h.GitRev)
		}
		byRev[h.GitRev] = append(byRev[h.GitRev], point{run: run, kind: kind, v: v, p50: p50, p99: p99})
	}
	if len(revs) == 0 {
		return fmt.Errorf("trend: no finished stored run has an instrument %q", *metric)
	}

	t := plot.NewTable(fmt.Sprintf("Trend of %s across revisions", *metric),
		"rev", "run", "name", "started", "kind", "value", "p50", "p99")
	var vals []float64
	var revTicks []int // index into vals where each revision group starts
	for _, rev := range revs {
		revTicks = append(revTicks, len(vals))
		for _, pt := range byRev[rev] {
			h := pt.run.Header
			p50s, p99s := "-", "-"
			if pt.kind == "latency" {
				p50s = fmt.Sprintf("%.6g", pt.p50)
				p99s = fmt.Sprintf("%.6g", pt.p99)
			}
			t.AddRow(rev, h.RunID, h.Name, h.StartedAt, pt.kind,
				fmt.Sprintf("%.6g", pt.v), p50s, p99s)
			vals = append(vals, pt.v)
		}
	}
	fmt.Println(t)

	if *svgOut != "" {
		svg := trendSVG(*metric, revs, revTicks, vals)
		if err := os.WriteFile(*svgOut, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Printf("trend: sparkline -> %s\n", *svgOut)
	}
	return nil
}

// trendSVG renders the cross-run series as one sparkline with a vertical
// boundary (and revision label) where each revision group begins.
func trendSVG(metric string, revs []string, revTicks []int, vals []float64) string {
	const w, h = 800, 200
	const padL, padR, padT, padB = 60, 40, 44, 40
	plotW, plotH := w-padL-padR, h-padT-padB
	var b strings.Builder
	plot.Open(&b, w, h)
	plot.Title(&b, fmt.Sprintf("Trend: %s (%d runs, %d revisions)", metric, len(vals), len(revs)))
	x := func(i int) float64 {
		if len(vals) == 1 {
			return float64(padL + plotW)
		}
		return float64(padL) + float64(i)*float64(plotW)/float64(len(vals)-1)
	}
	for gi, start := range revTicks {
		bx := x(start)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="%s" stroke-width="1"/>`+"\n",
			bx, padT, bx, padT+plotH, plot.InkGrid)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="10" fill="%s">%s</text>`+"\n",
			bx+3, h-padB+14, plot.InkMuted, revs[gi])
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="10" fill="%s" text-anchor="end">%.6g</text>`+"\n",
		padL-6, padT+8, plot.InkSecond, hi)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="10" fill="%s" text-anchor="end">%.6g</text>`+"\n",
		padL-6, padT+plotH, plot.InkSecond, lo)
	plot.Sparkline(&b, padL, padT, plotW, plotH, vals, plot.SeriesColors[0])
	plot.Close(&b)
	return b.String()
}
