// Package recorder is the run-record layer of the emulator: an append-only
// JSONL run store under a runs/ directory (store.go) holding one segment per
// run, which `lmasreport query` and `lmasreport trend` read back.
//
// A run's Segment is a pure observer, wired through the cluster behind a
// nil-by-default hook exactly like sim.Profiler and the telemetry registry:
// it receives a header when a run begins, every trace event as a span while
// the run goes, and the finished RunReport, which carries the run's
// utilization series, gauges and decision log. It spawns no proc, never
// blocks one, charges no virtual time and touches no event queue, so a run
// recorded and a run unrecorded produce byte-identical reports and traces —
// the neutrality property pinned by the tests.
package recorder

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"sync"

	"lmas/internal/telemetry"
	"lmas/internal/trace"
)

// StoreSchema identifies the run-store segment format: line one of every
// segment is a Header bearing this schema, followed by one Record per line.
const StoreSchema = "lmas/runstore/v2"

// Header identifies a run: which experiment it belongs to, the cell name,
// a content hash of its configuration, and the code revision. The run ID
// and wall-clock start time live here and only here — every record after
// the header is a pure function of the simulation, which is what makes two
// recordings of the same run byte-identical below line one.
type Header struct {
	Schema     string                  `json:"schema"`
	RunID      string                  `json:"run_id"`
	Experiment string                  `json:"experiment"`
	Name       string                  `json:"name"`
	ConfigHash string                  `json:"config_hash"`
	GitRev     string                  `json:"git_rev"`
	StartedAt  string                  `json:"started_at"` // RFC3339 wall clock
	Seed       int64                   `json:"seed"`
	Config     telemetry.ClusterConfig `json:"config"`
	Workload   map[string]any          `json:"workload,omitempty"`
}

// SpanArg is one ordered key/value annotation on a stored span. It is the
// trace sink's own typed argument, so spans stream from the sink without a
// copy; it is stored as {"k":key,"v":value} (trace.Arg.MarshalJSON), and a
// stored value loads back as the int, string or bool it was.
type SpanArg = trace.Arg

// Span is one trace event streamed into the record: a complete span, a
// begin/end edge, an instant, or a counter sample, in the Chrome trace-event
// phase vocabulary. Group/Track are resolved display names; TID is the
// originating sink's track id, unique within one run, which keeps distinct
// same-named tracks (two procs called "merge") on distinct timelines when
// the stored run is re-exported.
type Span struct {
	T     int64     `json:"t_ns"`
	DurNs int64     `json:"dur_ns,omitempty"`
	Ph    string    `json:"ph"`
	Group string    `json:"group"`
	Track string    `json:"track"`
	TID   int32     `json:"tid"`
	Name  string    `json:"name,omitempty"`
	Cat   string    `json:"cat,omitempty"`
	Args  []SpanArg `json:"args,omitempty"`
}

// Finish closes a run record with its full RunReport — counters, gauges,
// histograms, utilization series, decisions, and the critpath verdict all
// ride in the report, so a stored run reconstructs the exact report bytes.
type Finish struct {
	Report *telemetry.RunReport `json:"report"`
}

// Record is one post-header line of a store segment: exactly one of the
// fields is set.
type Record struct {
	Span   *Span   `json:"span,omitempty"`
	Finish *Finish `json:"finish,omitempty"`
}

// kinds counts the record's set fields; a stored record has exactly one.
func (r *Record) kinds() int {
	n := 0
	for _, set := range [...]bool{r.Span != nil, r.Finish != nil} {
		if set {
			n++
		}
	}
	return n
}

// ConfigHash digests a run's cluster configuration, workload, and seed into
// a short stable hex string, the store's "same setup" key: two runs with
// equal hashes are like-for-like comparable.
func ConfigHash(cfg telemetry.ClusterConfig, workload map[string]any, seed int64) string {
	b, err := json.Marshal(struct {
		Config   telemetry.ClusterConfig `json:"config"`
		Workload map[string]any          `json:"workload"`
		Seed     int64                   `json:"seed"`
	}{cfg, workload, seed})
	if err != nil {
		return "unhashable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:12]
}

var (
	gitRevOnce sync.Once
	gitRev     string
)

// GitRev reports the source revision recorded in run headers: the
// LMAS_GIT_REV environment variable when set (CI pins it), otherwise one
// `git rev-parse --short HEAD` per process, and "unknown" when neither is
// available.
func GitRev() string {
	gitRevOnce.Do(func() {
		if v := os.Getenv("LMAS_GIT_REV"); v != "" {
			gitRev = v
			return
		}
		out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
		if err != nil {
			gitRev = "unknown"
			return
		}
		gitRev = strings.TrimSpace(string(out))
		if gitRev == "" {
			gitRev = "unknown"
		}
	})
	return gitRev
}
