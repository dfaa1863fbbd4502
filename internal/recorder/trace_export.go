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
	// Pass 1: name every process and thread before any event references it.
	// pids are assigned by first appearance across the given run order;
	// tids reuse the stored per-run track ids (unique within a run, and
	// every pid belongs to exactly one run).
	type pidKey struct {
		run   int
		group string
	}
	pids := make(map[pidKey]int)
	type tidKey struct {
		run int
		tid int32
	}
	namedTIDs := make(map[tidKey]bool)
	for ri, run := range runs {
		for _, sp := range run.Spans() {
			pk := pidKey{ri, sp.Group}
			pid, ok := pids[pk]
			if !ok {
				pid = len(pids)
				pids[pk] = pid
				cw.Process(pid, run.Header.RunID+"/"+sp.Group)
			}
			tk := tidKey{ri, sp.TID}
			if !namedTIDs[tk] {
				namedTIDs[tk] = true
				cw.Thread(pid, sp.TID, sp.Track)
			}
		}
	}
	// Pass 2: the events themselves.
	for ri, run := range runs {
		for _, sp := range run.Spans() {
			e := trace.StreamEvent{TS: sp.T, Dur: sp.DurNs, TID: sp.TID, Name: sp.Name, Cat: sp.Cat, Args: sp.Args}
			if len(sp.Ph) == 1 { // anything else stays 0, which Event rejects
				e.Ph = sp.Ph[0]
			}
			if err := cw.Event(pids[pidKey{ri, sp.Group}], e); err != nil {
				return fmt.Errorf("compose trace: run %s: %w", run.Header.RunID, err)
			}
		}
	}
	return cw.Close()
}
