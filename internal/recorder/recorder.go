// Package recorder is the run-record layer of the emulator: a small
// recorder interface (Begin/Sample/Event/Finish) that observability
// backends implement, with two stdlib-only implementations — an append-only
// JSONL store under a runs/ directory (store.go) and a live monitoring HTTP
// server with an SSE dashboard (live.go).
//
// A recorder is a pure observer, wired through the cluster behind a
// nil-by-default hook exactly like sim.Profiler and the telemetry registry:
// it receives a header when a run begins, periodic virtual-time samples
// (per-node utilization, queue depth/high-water), streamed events (load
// manager decisions, trace summaries), and the finished RunReport. It never
// blocks a proc, charges virtual time, or touches the event queue, so a run
// recorded and a run unrecorded produce byte-identical reports — the
// neutrality property pinned by the tests.
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
const StoreSchema = "lmas/runstore/v1"

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

// NodeSample is one node's slice of a periodic sample: cumulative completed
// busy time plus per-resource utilization over the last interval (0..1,
// derived from completed holds, so a hold still in progress shows up when
// it ends).
type NodeSample struct {
	Node    string  `json:"node"`
	CPUBusy float64 `json:"cpu_busy_sec"`
	CPU     float64 `json:"cpu"`
	Disk    float64 `json:"disk,omitempty"`
	NIC     float64 `json:"nic,omitempty"`
}

// QueueSample is one queue's instantaneous depth and high-water mark.
type QueueSample struct {
	Queue string `json:"queue"`
	Depth int    `json:"depth"`
	High  int    `json:"high_water"`
}

// LatencySnapshot is one latency histogram's running summary at sample time,
// the data behind the live dashboard's p50/p99 strip.
type LatencySnapshot struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	P50Ns int64  `json:"p50_ns"`
	P99Ns int64  `json:"p99_ns"`
}

// Sample is one periodic virtual-time observation of the whole cluster.
// Nodes follow cluster order (hosts first), queues registration order, and
// latencies telemetry registration order, so samples are deterministic.
type Sample struct {
	T         int64             `json:"t_ns"`
	Nodes     []NodeSample      `json:"nodes,omitempty"`
	Queues    []QueueSample     `json:"queues,omitempty"`
	Latencies []LatencySnapshot `json:"latencies,omitempty"`
}

// Event is one streamed run event: a load-manager decision, a phase marker,
// or a trace-span summary. Fields carries numeric attachments; it marshals
// with sorted keys (encoding/json), so events are byte-stable.
type Event struct {
	T      int64              `json:"t_ns"`
	Kind   string             `json:"kind"`
	Source string             `json:"source,omitempty"`
	Action string             `json:"action,omitempty"`
	Detail string             `json:"detail,omitempty"`
	Fields map[string]float64 `json:"fields,omitempty"`
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
	Sample *Sample `json:"sample,omitempty"`
	Event  *Event  `json:"event,omitempty"`
	Span   *Span   `json:"span,omitempty"`
	Finish *Finish `json:"finish,omitempty"`
}

// Recorder receives one run's record stream. Implementations must tolerate
// concurrent runs (one Recorder per run, runs possibly on different
// goroutines) but calls on a single Recorder are sequential.
type Recorder interface {
	// Begin opens the run. The header's RunID/StartedAt/GitRev may be
	// empty; backends fill them in place, so under a Multi fan-out later
	// sinks see the IDs earlier sinks assigned.
	Begin(h *Header)
	// Sample records one periodic observation.
	Sample(s Sample)
	// Event records one streamed event.
	Event(e Event)
	// Span records one streamed trace event. Backends that do not keep
	// traces (the live dashboard) may drop spans. sp.Args belongs to the
	// caller: a backend that keeps the span past its return copies Args.
	Span(sp Span)
	// Finish closes the run with its completed report (nil if the run
	// failed before reporting).
	Finish(rep *telemetry.RunReport)
}

// Sink creates per-run recorders. A sweep calls NewRun once per cell, from
// the worker goroutine running that cell, so NewRun must be safe for
// concurrent use.
type Sink interface {
	NewRun() Recorder
}

// Multi fans a run's records out to several sinks (e.g. a store and a live
// dashboard at once).
type Multi []Sink

// NewRun returns a recorder that forwards every call to one recorder per
// underlying sink.
func (m Multi) NewRun() Recorder {
	recs := make(multiRecorder, len(m))
	for i, s := range m {
		recs[i] = s.NewRun()
	}
	return recs
}

type multiRecorder []Recorder

func (m multiRecorder) Begin(h *Header) {
	for _, r := range m {
		r.Begin(h)
	}
}

func (m multiRecorder) Sample(s Sample) {
	for _, r := range m {
		r.Sample(s)
	}
}

func (m multiRecorder) Event(e Event) {
	for _, r := range m {
		r.Event(e)
	}
}

func (m multiRecorder) Span(sp Span) {
	for _, r := range m {
		r.Span(sp)
	}
}

func (m multiRecorder) Finish(rep *telemetry.RunReport) {
	for _, r := range m {
		r.Finish(rep)
	}
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
