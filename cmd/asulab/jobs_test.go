package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"testing"
)

// TestTablesByteIdenticalAcrossJobs: every table experiment measures its rows
// on the worker pool, and at reduced size its printed table and its measured
// rows' JSON are the same bytes whether one row runs at a time or four do.
// (Rows are independent simulations collected in axis order; mid-run
// adaptation's trigger instants and decision log are the most
// schedule-sensitive bytes here.)
func TestTablesByteIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"fig9", []string{"-n", "16384"}},
		{"cratio", []string{"-n", "16384"}},
		{"gamma", []string{"-n", "8192"}},
		{"routes", []string{"-n", "16384"}},
		{"rtree", []string{"-entries", "2048"}},
		{"terraflow", []string{"-w", "48", "-h", "48"}},
		{"iso", []string{"-n", "32768"}},
		{"hybrid", []string{"-n", "16384"}},
		{"packet", []string{"-n", "16384"}},
		{"filter", []string{"-n", "16384"}},
		{"adapt", []string{"-n", "16384"}},
		{"onepass", []string{"-hosts", "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := lookup(tc.name)
			if e == nil {
				t.Fatalf("no %s command", tc.name)
			}
			run := func(jobs int) string {
				fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
				runner := e.bind(fs)
				if err := fs.Parse(tc.args); err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				rows, err := runner(&out, jobs)
				if err != nil {
					t.Fatal(err)
				}
				js, err := json.Marshal(rows)
				if err != nil {
					t.Fatal(err)
				}
				if out.Len() == 0 || string(js) == "null" {
					t.Fatalf("-j %d printed %d bytes and returned rows %s", jobs, out.Len(), js)
				}
				return out.String() + string(js)
			}
			if serial, pooled := run(1), run(4); serial != pooled {
				t.Errorf("table or rows differ between -j 1 and -j 4:\n%s\nvs\n%s", serial, pooled)
			}
		})
	}
}
