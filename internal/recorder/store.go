package recorder

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"lmas/internal/telemetry"
)

// Store is the append-only run-record store: one JSONL segment per run under
// Dir, named <run-id>.jsonl. Line one is the Header (the only place run IDs
// and wall-clock timestamps appear); every following line is a Record, and a
// finished run's last record embeds the full RunReport. NewRun is safe for
// concurrent use — sweep workers each record their own cell.
type Store struct {
	Dir string

	mu  sync.Mutex
	err error
}

// OpenStore creates (if needed) and opens a run store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{Dir: dir}, nil
}

// Err reports the first write error the store has seen, if any. Recording is
// an observer and must not fail the run it observes, so segment write errors
// are latched here for the harness to check after the run.
func (st *Store) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

func (st *Store) setErr(err error) {
	if err == nil {
		return
	}
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.mu.Unlock()
}

// NewRun opens a recorder for one run; the segment file is created at Begin.
func (st *Store) NewRun() Recorder { return &storeRun{st: st} }

// storeRun writes one segment. Lines are encoded into out's current chunk on
// the caller's goroutine and reach the file from out's writer goroutine, which
// lives from Begin to Finish.
type storeRun struct {
	st   *Store
	f    io.WriteCloser // the segment file
	out  *chunkWriter   // nil before Begin, after Finish, and when Begin failed
	dead bool           // an encode error ended the stream; later lines are dropped
}

// sanitizeID maps an experiment or cell name onto the segment-filename
// alphabet: lowercase letters, digits, and dashes.
func sanitizeID(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	out := strings.Trim(b.String(), "-")
	if out == "" {
		out = "run"
	}
	return out
}

func (r *storeRun) Begin(h *Header) {
	h.Schema = StoreSchema
	if h.Experiment == "" {
		h.Experiment = "adhoc"
	}
	if h.StartedAt == "" {
		h.StartedAt = time.Now().UTC().Format(time.RFC3339)
	}
	if h.GitRev == "" {
		h.GitRev = GitRev()
	}
	base := sanitizeID(h.Experiment) + "-" + sanitizeID(h.Name)
	// Claim a unique segment with O_EXCL so concurrent workers (and
	// concurrent processes) never collide; the suffix doubles as the
	// tiebreaker when runs share a start second.
	r.st.mu.Lock()
	for i := 0; ; i++ {
		id := fmt.Sprintf("%s-%04d", base, i)
		f, err := os.OpenFile(filepath.Join(r.st.Dir, id+".jsonl"),
			os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			h.RunID = id
			r.f = f
			break
		}
		if !os.IsExist(err) {
			r.st.mu.Unlock()
			r.st.setErr(err)
			r.dead = true
			return
		}
	}
	r.st.mu.Unlock()
	r.out = newChunkWriter(r.f, r.st.setErr)
	r.writeLine(h)
}

// fail latches an encode error and ends the stream: a segment with a line
// missing from its middle would parse as a complete run.
func (r *storeRun) fail(err error) {
	r.st.setErr(err)
	r.dead = true
}

func (r *storeRun) writeLine(v any) {
	if r.out == nil || r.dead {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		r.fail(err)
		return
	}
	r.out.buf = append(append(r.out.buf, b...), '\n')
	r.out.lineDone()
}

func (r *storeRun) Sample(s Sample) { r.writeLine(Record{Sample: &s}) }
func (r *storeRun) Event(e Event)   { r.writeLine(Record{Event: &e}) }

// Span is the one high-rate record (one per trace event, 10^5 per sort cell),
// so its line is appended in place by appendSpanLine rather than marshalled.
func (r *storeRun) Span(sp Span) {
	if r.out == nil || r.dead {
		return
	}
	r.out.buf = appendSpanLine(r.out.buf, &sp)
	r.out.lineDone()
}

// Finish writes the closing record, then flushes, joins the writer goroutine
// and closes the file, so every error is latched in the store and the segment
// is complete on disk when it returns.
func (r *storeRun) Finish(rep *telemetry.RunReport) {
	if r.out == nil {
		return
	}
	r.writeLine(Record{Finish: &Finish{Report: rep}})
	r.out.close()
	r.st.setErr(r.f.Close())
	r.f, r.out = nil, nil
}

// RunRecord is one loaded store segment: the identifying header plus every
// record in stream order. Samples/events/finish stay interleaved exactly as
// written so Replay reproduces the original stream.
type RunRecord struct {
	// Path is the segment file the run was loaded from.
	Path    string
	Header  Header
	Records []Record
}

// Report returns the embedded finished RunReport, or nil for a run that
// never finished.
func (r *RunRecord) Report() *telemetry.RunReport {
	for i := len(r.Records) - 1; i >= 0; i-- {
		if f := r.Records[i].Finish; f != nil {
			return f.Report
		}
	}
	return nil
}

// Finished reports whether the segment ends in a finish record. A finished
// run without a Report failed after Begin; an unfinished one was killed (or is
// still being written).
func (r *RunRecord) Finished() bool {
	return len(r.Records) > 0 && r.Records[len(r.Records)-1].Finish != nil
}

// Samples returns the run's periodic samples in stream order.
func (r *RunRecord) Samples() []Sample {
	var out []Sample
	for _, rec := range r.Records {
		if rec.Sample != nil {
			out = append(out, *rec.Sample)
		}
	}
	return out
}

// Events returns the run's streamed events in stream order.
func (r *RunRecord) Events() []Event {
	var out []Event
	for _, rec := range r.Records {
		if rec.Event != nil {
			out = append(out, *rec.Event)
		}
	}
	return out
}

// Spans returns the run's streamed trace events in stream order — which is
// emission order, the order Perfetto export expects.
func (r *RunRecord) Spans() []Span {
	var out []Span
	for _, rec := range r.Records {
		if rec.Span != nil {
			out = append(out, *rec.Span)
		}
	}
	return out
}

// Replay feeds the stored run into rec in original stream order — this is
// how `lmasreport serve` pushes a finished run onto the live dashboard.
func (r *RunRecord) Replay(rec Recorder) {
	h := r.Header
	rec.Begin(&h)
	finished := false
	for _, record := range r.Records {
		switch {
		case record.Sample != nil:
			rec.Sample(*record.Sample)
		case record.Event != nil:
			rec.Event(*record.Event)
		case record.Span != nil:
			rec.Span(*record.Span)
		case record.Finish != nil:
			rec.Finish(record.Finish.Report)
			finished = true
		}
	}
	if !finished {
		rec.Finish(nil)
	}
}

// LoadRun reads one segment file.
func LoadRun(path string) (*RunRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readRun(path, f)
}

// readRun decodes one segment from r; path only labels the result and errors.
func readRun(path string, r io.Reader) (*RunRecord, error) {
	// Lines embed whole RunReports, so read unbounded lines rather than
	// relying on a scanner's token cap.
	br := bufio.NewReader(r)
	headerLine, err := br.ReadBytes('\n')
	if err != nil && err != io.EOF {
		return nil, err
	}
	if len(bytes.TrimSpace(headerLine)) == 0 {
		return nil, fmt.Errorf("%s: empty segment", path)
	}
	run := &RunRecord{Path: path}
	if err := json.Unmarshal(headerLine, &run.Header); err != nil {
		return nil, fmt.Errorf("%s: bad header: %w", path, err)
	}
	if run.Header.Schema != StoreSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, run.Header.Schema, StoreSchema)
	}
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var rec Record
			if uerr := json.Unmarshal(line, &rec); uerr != nil {
				return nil, fmt.Errorf("%s: bad record: %w", path, uerr)
			}
			run.Records = append(run.Records, rec)
		}
		if err == io.EOF {
			return run, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// SkippedError lists the segments Runs could not read. It is the only error
// Runs, Select and Prune return together with usable runs: every readable
// segment is in the result, so a caller that can do without the skipped ones
// (a listing) reports the error and carries on, and one whose verdict could
// hinge on them (a gate) treats it like any other.
type SkippedError struct {
	// Skipped holds one error per unreadable segment, each naming its path.
	Skipped []error
}

func (e *SkippedError) Error() string {
	return fmt.Sprintf("run store: %d unreadable segment(s): %v", len(e.Skipped), errors.Join(e.Skipped...))
}

// fatal reports whether a Runs error leaves nothing to work with.
func fatal(err error) bool {
	var skipped *SkippedError
	return err != nil && !errors.As(err, &skipped)
}

// Runs loads every readable segment in the store, ordered by (start time,
// run ID). One killed writer — a zero-byte file left by the O_EXCL claim, a
// truncated last line — must not hide every other run, so unreadable
// segments are skipped and reported in a *SkippedError beside the rest.
func (st *Store) Runs() ([]*RunRecord, error) {
	paths, err := filepath.Glob(filepath.Join(st.Dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var runs []*RunRecord
	var skipped []error
	for _, p := range paths {
		run, err := LoadRun(p)
		if err != nil {
			skipped = append(skipped, err)
			continue
		}
		runs = append(runs, run)
	}
	sort.SliceStable(runs, func(i, j int) bool {
		if runs[i].Header.StartedAt != runs[j].Header.StartedAt {
			return runs[i].Header.StartedAt < runs[j].Header.StartedAt
		}
		return runs[i].Header.RunID < runs[j].Header.RunID
	})
	if skipped != nil {
		return runs, &SkippedError{Skipped: skipped}
	}
	return runs, nil
}

// Select returns the runs belonging to experiment (all experiments when
// experiment is ""), keeping only the latest run per (experiment, cell name)
// so re-recorded cells supersede older attempts. Order follows each cell's
// first appearance. Unreadable segments are reported as Runs reports them.
func (st *Store) Select(experiment string) ([]*RunRecord, error) {
	runs, err := st.Runs()
	if fatal(err) {
		return nil, err
	}
	type key struct{ exp, name string }
	latest := make(map[key]*RunRecord)
	var order []key
	for _, run := range runs {
		if experiment != "" && run.Header.Experiment != experiment {
			continue
		}
		k := key{run.Header.Experiment, run.Header.Name}
		if _, ok := latest[k]; !ok {
			order = append(order, k)
		}
		latest[k] = run
	}
	out := make([]*RunRecord, 0, len(order))
	for _, k := range order {
		out = append(out, latest[k])
	}
	return out, err
}

// Prune deletes the oldest segments beyond the newest keep runs, ordered by
// (header start time, run ID) — the retention policy for long-lived stores,
// whose runs/ directory otherwise grows one segment per run forever. It
// returns the pruned (or, with dryRun, would-be-pruned) runs oldest-first;
// with dryRun no file is touched. keep < 0 is an error; keep == 0 empties
// the store. Unreadable segments are neither counted nor deleted, and are
// reported as Runs reports them.
func (st *Store) Prune(keep int, dryRun bool) ([]*RunRecord, error) {
	if keep < 0 {
		return nil, fmt.Errorf("prune: keep %d is negative", keep)
	}
	runs, err := st.Runs()
	if fatal(err) {
		return nil, err
	}
	if len(runs) <= keep {
		return nil, err
	}
	victims := runs[:len(runs)-keep]
	if dryRun {
		return victims, err
	}
	for _, run := range victims {
		if rerr := os.Remove(run.Path); rerr != nil {
			return nil, rerr
		}
	}
	return victims, err
}

// TrajectoryOf rebuilds a bench trajectory from stored runs' embedded
// reports, skipping unfinished runs. The result feeds telemetry.Diff
// directly, which is how `lmasreport query gate` reproduces the bench gate
// verdict from store records alone.
func TrajectoryOf(runs []*RunRecord) *telemetry.Trajectory {
	tr := &telemetry.Trajectory{Schema: telemetry.TrajectorySchema}
	for _, run := range runs {
		if rep := run.Report(); rep != nil {
			tr.Runs = append(tr.Runs, rep)
		}
	}
	return tr
}
