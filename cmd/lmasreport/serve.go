package main

import (
	"flag"
	"fmt"
	"net/http"

	"lmas/internal/recorder"
)

// runServe replays stored runs into the live dashboard: point it at a run
// store (or a single segment file) and browse the same UI a live bench
// serves, backed by the recorded samples, events, and verdicts.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8070", "listen address")
	exp := fs.String("experiment", "", "only replay runs of this experiment")
	pos := parseMixed(fs, args)
	if len(pos) != 1 {
		return fmt.Errorf("serve: want exactly one run store directory or segment file")
	}

	var runs []*recorder.RunRecord
	if st, err := openStoreRead(pos[0]); err == nil {
		if runs, err = st.Runs(); warnSkipped(err) != nil {
			return err
		}
	} else if run, ferr := recorder.LoadRun(pos[0]); ferr == nil {
		runs = []*recorder.RunRecord{run}
	} else {
		return fmt.Errorf("serve: %s is neither a run store (%v) nor a segment (%v)", pos[0], err, ferr)
	}

	live := recorder.NewLive()
	replayed := 0
	for _, run := range runs {
		if *exp != "" && run.Header.Experiment != *exp {
			continue
		}
		run.Replay(live.NewRun())
		replayed++
	}
	if replayed == 0 {
		return fmt.Errorf("serve: no matching runs in %s", pos[0])
	}
	fmt.Printf("serve: %d run(s) from %s on http://%s/\n", replayed, pos[0], *addr)
	return http.ListenAndServe(*addr, live.Handler())
}
