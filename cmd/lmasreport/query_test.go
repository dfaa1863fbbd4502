package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lmas/internal/recorder"
	"lmas/internal/telemetry"
)

// TestQueryToleratesUnreadableSegments: a store holding a good run, a run that
// failed after Begin and the zero-byte file a killed process leaves behind.
// `query list` shows both readable runs — the failed one as finished without
// a report — and succeeds; `query gate`, whose verdict could hinge on the
// missing run, refuses the store.
func TestQueryToleratesUnreadableSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := recorder.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"good", "failed"} {
		rec := st.NewRun()
		rec.Begin(&recorder.Header{Experiment: "exp", Name: name})
		if name == "good" {
			rec.Finish(telemetry.NewRunReport(name, 1, 0))
		} else {
			rec.Finish(nil)
		}
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "exp-killed-0000.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() {
		if err := runQuery([]string{dir, "list"}); err != nil {
			t.Fatalf("query list: %v", err)
		}
	})
	for _, want := range []string{"exp-good-0000", "exp-failed-0000", "failed (no report)"} {
		if !strings.Contains(out, want) {
			t.Errorf("query list output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "exp-killed-0000") {
		t.Errorf("query list shows the unreadable segment as a run:\n%s", out)
	}
	err = runQuery([]string{dir, "gate", "-base", "exp", "-new", "exp"})
	if err == nil || !strings.Contains(err.Error(), "exp-killed-0000.jsonl") {
		t.Errorf("query gate = %v, want an error naming the unreadable segment", err)
	}
}
