// Command asulab drives the emulated active-storage laboratory: it
// regenerates every figure and table of the paper's evaluation plus the
// ablations catalogued in DESIGN.md. Each command is one entry of the
// experiment table in table.go — fig9, fig10, cratio, gamma, routes, rtree,
// terraflow, iso, hybrid, packet, filter, adapt, onepass, openloop, trace —
// and dispatch, the usage text and `all` are generated from that table:
//
//	asulab                   (the command list, one line each)
//	asulab <command> -h      (that command's flags and defaults)
//	asulab <command> [flags]
//	asulab all               (every command but trace, in table order, default flags)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
)

func main() {
	// asulab itself takes no flags; parsing the arguments before the
	// subcommand still gives -h its usage text and any other flag Go's
	// "flag provided but not defined" error (exit 2).
	global := flag.NewFlagSet("asulab", flag.ExitOnError)
	global.Usage = func() { usage(os.Stderr) }
	global.Parse(os.Args[1:]) // stops at the first non-flag: the subcommand
	if global.NArg() < 1 {
		usage(os.Stderr)
		os.Exit(2)
	}
	cmd, args := global.Arg(0), global.Args()[1:]
	var err error
	switch e := lookup(cmd); {
	case e != nil:
		err = e.run(args)
	case cmd == "all":
		err = runAll()
	case cmd == "help":
		usage(os.Stderr)
	default:
		fmt.Fprintf(os.Stderr, "asulab: unknown command %q\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "asulab:", err)
		os.Exit(1)
	}
}

// lookup resolves a command name or alias to its table entry.
func lookup(cmd string) *experiment {
	for i := range table {
		e := &table[i]
		if e.name == cmd || slices.Contains(e.aliases, cmd) {
			return e
		}
	}
	return nil
}

// run parses args with the entry's own flag set and executes it on stdout,
// its rows or runs on one worker per CPU.
func (e *experiment) run(args []string) error {
	fs := flag.NewFlagSet(e.name, flag.ExitOnError)
	runner := e.bind(fs)
	fs.Parse(args)
	_, err := runner(os.Stdout, 0)
	return err
}

func usage(w io.Writer) {
	fmt.Fprint(w, "asulab — emulated active-storage experiments\n\ncommands:\n")
	for _, e := range table {
		fmt.Fprintf(w, "  %-10s %s\n", e.name, e.summary)
	}
	fmt.Fprintf(w, "  %-10s %s\n", "all", "run everything at default sizes")
}

// runAll executes every table entry that prints to stdout only, in table
// order, at its default flags.
func runAll() error {
	for i := range table {
		e := &table[i]
		if e.solo {
			continue
		}
		fmt.Printf("== %s ==\n", e.name)
		if err := e.run(nil); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	return nil
}
