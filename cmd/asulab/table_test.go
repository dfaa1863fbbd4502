package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// pinnedFlags is every command's flag set — names and defaults — as
// `asulab <command> -h` printed them at the commit before the table existed
// (2071812), in table order. The table may gain entries; an existing command
// must neither gain a knob nor lose one.
var pinnedFlags = []struct {
	name  string
	flags []string
}{
	{"fig9", []string{"c=8", "n=262144", "seed=42"}},
	{"fig10", []string{"critpath=false", "experiment=fig10", "n=262144", "record=", "report=", "seed=42"}},
	{"cratio", []string{"alpha=64", "n=131072"}},
	{"gamma", []string{"n=65536"}},
	{"routes", []string{"n=262144"}},
	{"rtree", []string{"asus=8", "entries=16384"}},
	{"terraflow", []string{"asus=8", "h=256", "w=256"}},
	{"iso", []string{"n=131072"}},
	{"hybrid", []string{"alpha=64", "n=262144"}},
	{"packet", []string{"n=262144"}},
	{"filter", []string{"asus=16", "n=262144"}},
	{"adapt", []string{"n=262144"}},
	{"onepass", []string{"hosts=2"}},
	{"openloop", []string{"asus=8", "experiment=", "hosts=2", "jobs=20000", "rate=5000", "record=", "report=", "seed=42", "timeout=1000", "zipf=1.3"}},
	{"trace", []string{"asus=4", "n=16384", "o=dsmsort-trace.json", "seed=42"}},
}

func TestTableFlagsPinned(t *testing.T) {
	if len(table) != len(pinnedFlags) {
		t.Errorf("table has %d entries, %d are pinned: pin the new command's flags here", len(table), len(pinnedFlags))
	}
	for i, want := range pinnedFlags {
		if i >= len(table) {
			break
		}
		e := table[i]
		if e.name != want.name {
			t.Errorf("table[%d] is %q, want %q (usage and `all` follow table order)", i, e.name, want.name)
			continue
		}
		fs := flag.NewFlagSet(e.name, flag.ContinueOnError)
		if e.bind(fs) == nil {
			t.Errorf("%s: bind returned no runner", e.name)
		}
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
		if !slices.Equal(got, want.flags) {
			t.Errorf("%s flags = %v, want %v", e.name, got, want.flags)
		}
	}
}

// TestTableReachableAndListedOnce: every entry resolves by name and by each
// alias, to itself; no name or alias is claimed twice; the generated usage
// shows each command on exactly one line, `all` last; and `all` runs the
// parent's fourteen experiments in the parent's order (trace, which writes a
// file, stays out).
func TestTableReachableAndListedOnce(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	listed := func(name string) (n int) {
		for _, l := range lines {
			if f := strings.Fields(l); strings.HasPrefix(l, "  ") && len(f) > 1 && f[0] == name {
				n++
			}
		}
		return n
	}
	seen := map[string]bool{"all": true, "help": true}
	var inAll []string
	for i := range table {
		e := &table[i]
		for _, name := range append([]string{e.name}, e.aliases...) {
			if seen[name] {
				t.Errorf("%q is claimed twice", name)
			}
			seen[name] = true
			if lookup(name) != e {
				t.Errorf("lookup(%q) does not resolve to the %s entry", name, e.name)
			}
		}
		if n := listed(e.name); n != 1 || e.summary == "" {
			t.Errorf("%s: on %d usage lines with summary %q, want exactly one", e.name, n, e.summary)
		}
		if !e.solo {
			inAll = append(inAll, e.name)
		}
	}
	if lookup("isolation") != lookup("iso") || lookup("iso") == nil {
		t.Error("isolation is not an alias of iso")
	}
	if last := strings.Fields(lines[len(lines)-1]); listed("all") != 1 || last[0] != "all" {
		t.Errorf("usage does not end with the one `all` line: %q", lines[len(lines)-1])
	}
	want := strings.Fields("fig9 fig10 cratio gamma routes rtree terraflow iso hybrid packet filter adapt onepass openloop")
	if !slices.Equal(inAll, want) {
		t.Errorf("`all` runs %v, want %v", inAll, want)
	}
}

// TestPackageDocNamesEveryCommand keeps the hand-written package comment
// consistent with the table it describes.
func TestPackageDocNamesEveryCommand(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	words := strings.FieldsFunc(doc, func(r rune) bool { return !('a' <= r && r <= 'z' || '0' <= r && r <= '9') })
	for _, e := range table {
		if !slices.Contains(words, e.name) {
			t.Errorf("package doc does not mention %q", e.name)
		}
	}
}

// TestUnknownCommandExits2: a command the table does not hold is refused with
// the usage text and exit status 2, as before the table.
func TestUnknownCommandExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0], "nosuch")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr, cmd.Stdout = &stderr, io.Discard
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("err = %v, want exit status 2", err)
	}
	for _, want := range []string{`unknown command "nosuch"`, "\n  fig9 ", "\n  all "} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not contain %q", stderr.String(), want)
		}
	}
}

// TestExperimentsDocQuotesCommittedTables: the code block under every
// "**Measured** (`asulab <command>`" line of EXPERIMENTS.md is an excerpt of
// bench/asulab_all.txt — the file CI cmps `asulab all` against — so the
// paper-facing tables cannot drift from the commands that print them. (The
// openloop block is a prose-formatted digest, not an excerpt.)
func TestExperimentsDocQuotesCommittedTables(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	all, err := os.ReadFile("../../bench/asulab_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	printed := map[string]bool{}
	for _, l := range strings.Split(string(all), "\n") {
		printed[strings.TrimRight(l, " ")] = true
	}
	blocks := 0
	lines := strings.Split(string(doc), "\n")
	for i := 0; i < len(lines); i++ {
		cmd, ok := strings.CutPrefix(lines[i], "**Measured** (`asulab ")
		if !ok {
			continue
		}
		cmd, _, _ = strings.Cut(cmd, "`")
		if e := lookup(cmd); e == nil || e.solo || cmd == "openloop" {
			continue
		}
		for ; i < len(lines) && lines[i] != "```"; i++ {
		}
		blocks++
		for i++; i < len(lines) && lines[i] != "```"; i++ {
			if !printed[lines[i]] {
				t.Errorf("EXPERIMENTS.md:%d (asulab %s): %q is not a line of bench/asulab_all.txt", i+1, cmd, lines[i])
			}
		}
	}
	if blocks < 13 {
		t.Errorf("found %d Measured blocks quoting asulab tables, want the 13 of fig9…onepass", blocks)
	}
}
