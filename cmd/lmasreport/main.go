// Command lmasreport inspects and compares the machine-readable RunReports
// the emulator emits (dsmsort -report, asulab fig10 -report), turning the
// paper's "compare two runs" methodology into a repeatable CLI:
//
//	lmasreport show  run.json [-svg util.svg] [-all]
//	lmasreport critpath run.json [-svg attr.svg]
//	lmasreport diff  base.json new.json [-runtime-threshold 0.10] [-p99-threshold T]
//	lmasreport bench [-quick] [-o FILE] [-seed S] [-record DIR]
//	lmasreport query STORE {list|show|trace|prune} ...
//	lmasreport trend STORE -metric NAME [-svg OUT.svg]
//
// show renders paper-style tables (config, runtime, per-node utilization,
// counters, latency quantiles, the load-manager decision log) and can plot
// a Figure-10-style utilization-versus-time SVG. diff compares two reports
// or bench trajectories field by field and exits non-zero when a gated
// field regresses past its threshold — the one regression gate. bench runs
// the standard DSM-Sort matrix and writes one trajectory point; with
// -record it also streams every cell into a queryable run store. query
// lists, renders, composes and prunes stored runs, and trend follows one
// metric across them.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "show":
		err = runShow(args)
	case "critpath":
		err = runCritpath(args)
	case "diff":
		err = runDiff(args)
	case "bench":
		err = runBench(args)
	case "query":
		err = runQuery(args)
	case "trend":
		err = runTrend(args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "lmasreport: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmasreport:", err)
		os.Exit(1)
	}
}

// parseMixed parses args with fs, allowing flags to appear after positional
// arguments (the stdlib flag package stops at the first non-flag). Returns
// the positionals in order.
func parseMixed(fs *flag.FlagSet, args []string) []string {
	var pos []string
	fs.Parse(args)
	for fs.NArg() > 0 {
		rest := fs.Args()
		pos = append(pos, rest[0])
		fs.Parse(rest[1:])
	}
	return pos
}

func usage() {
	fmt.Fprintln(os.Stderr, `lmasreport — inspect and compare emulator run reports

commands:
  show  FILE [-svg OUT.svg] [-all]     render a report as tables (+ utilization plot)
  critpath FILE [-svg OUT.svg]         latency attribution: bottleneck verdict,
                                       critical path, per-stage waterfall
  diff  BASE NEW [-runtime-threshold R] [-p99-threshold P] [-q]
                                       field-by-field comparison; exit 1 on regression
  bench [-quick] [-o FILE] [-seed S] [-stamp=false]
        [-record DIR] [-experiment E]
                                       run the DSM-Sort matrix, write a trajectory point;
                                       optionally record every cell into a run store
  query STORE list   [-experiment E]   enumerate recorded runs
  query STORE show   RUN-ID            render one stored run's report
  query STORE trace  [RUN-ID ...] [-experiment E] [-o OUT.json]
                                       compose stored trace spans into Perfetto JSON
  query STORE prune  -keep N [-dry-run]
                                       delete the oldest segments beyond the newest N
  trend STORE -metric NAME [-experiment E] [-name CELL] [-svg OUT.svg]
                                       one metric across stored runs grouped by git_rev`)
}
