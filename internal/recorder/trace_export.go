package recorder

import (
	"fmt"
	"io"

	"lmas/internal/trace"
)

// ComposeTrace merges the stored trace spans of any set of runs into one
// Chrome trace-event JSON document (loadable in Perfetto or chrome://tracing).
// Each (run, track group) pair becomes a process named "<run-id>/<group>" and
// each stored track a thread within it, so sweep cells and revisions of the
// same cell sit side by side on one timeline — the cross-run view a single
// trace file cannot give. Runs contribute in the order given, spans in stream
// (emission) order; the output is byte-stable for identical inputs.
func ComposeTrace(w io.Writer, runs []*RunRecord) error {
	cw := trace.NewChromeWriter(w)
	for _, run := range runs {
		// The writer numbers processes by first appearance across the given
		// run order and names each (process, stored track id) pair before its
		// first span. A run's track ids are unique within it, and its run ID
		// within its store, so every process belongs to exactly one run.
		procs := make(map[string]string) // group -> "<run-id>/<group>"
		for _, sp := range run.Spans() {
			proc, ok := procs[sp.Group]
			if !ok {
				proc = run.Header.RunID + "/" + sp.Group
				procs[sp.Group] = proc
			}
			e := trace.StreamEvent{TS: sp.T, Dur: sp.DurNs, Group: proc, Track: sp.Track, TID: sp.TID,
				Name: sp.Name, Cat: sp.Cat, Args: sp.Args}
			if len(sp.Ph) == 1 { // anything else stays 0, which Event rejects
				e.Ph = sp.Ph[0]
			}
			if cw.Event(e); cw.Err() != nil {
				return fmt.Errorf("compose trace: run %s: %w", run.Header.RunID, cw.Err())
			}
		}
	}
	return cw.Close()
}
