package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"lmas/internal/critpath"
	"lmas/internal/sim"
)

// ReportSchema identifies the single-run report format.
const ReportSchema = "lmas/runreport/v1"

// TrajectorySchema identifies the multi-run bench trajectory format.
const TrajectorySchema = "lmas/bench/v1"

// ClusterConfig is the cluster parameterization echoed into every report so
// a diff can refuse to compare apples to oranges.
type ClusterConfig struct {
	Hosts         int     `json:"hosts"`
	ASUs          int     `json:"asus"`
	C             float64 `json:"c"`
	HostOpsPerSec float64 `json:"host_ops_per_sec"`
	DiskRateMBps  float64 `json:"disk_rate_mbps"`
	DiskSeekMs    float64 `json:"disk_seek_ms"`
	NetMBps       float64 `json:"net_mbps"`
	NetLatencyUs  float64 `json:"net_latency_us"`
	RecordSize    int     `json:"record_size"`
}

// UtilSeries is one resource's utilization-versus-time trace, windowed as in
// Figure 10. Util values are rounded to 1e-6 so reports are byte-stable.
type UtilSeries struct {
	WindowSec float64   `json:"window_sec"`
	Mean      float64   `json:"mean"`
	TS        []float64 `json:"ts_sec"`
	Util      []float64 `json:"util"`
}

// round6 keeps float output short and stable; 1e-6 is far below anything the
// utilization windows can resolve.
func round6(v float64) float64 { return math.Round(v*1e6) / 1e6 }

// NodeReport is one emulated node's resource record.
type NodeReport struct {
	Name      string      `json:"name"`
	Kind      string      `json:"kind"`
	OpsPerSec float64     `json:"ops_per_sec"`
	CPU       *UtilSeries `json:"cpu,omitempty"`
	Disk      *UtilSeries `json:"disk,omitempty"`
	NIC       *UtilSeries `json:"nic,omitempty"`
}

// CounterReport is one counter's final value.
type CounterReport struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeReport is one gauge's sampled series.
type GaugeReport struct {
	Name    string        `json:"name"`
	Samples []GaugeSample `json:"samples"`
}

// LatencyBucket is one nonzero bucket of a latency histogram: the inclusive
// upper bound of the bucket in nanoseconds and its observation count. Only
// nonzero buckets are exported, so sparse distributions stay compact.
type LatencyBucket struct {
	UpperNs int64 `json:"upper_ns"`
	Count   int64 `json:"count"`
}

// LatencyReport is one latency histogram's distribution and summary
// quantiles. All values are integer nanoseconds of virtual time — pure
// functions of the bucket layout, byte-identical from run to run.
type LatencyReport struct {
	Name    string          `json:"name"`
	Count   int64           `json:"count"`
	SumNs   int64           `json:"sum_ns"`
	MinNs   int64           `json:"min_ns"`
	MaxNs   int64           `json:"max_ns"`
	P50Ns   int64           `json:"p50_ns"`
	P90Ns   int64           `json:"p90_ns"`
	P99Ns   int64           `json:"p99_ns"`
	P999Ns  int64           `json:"p999_ns"`
	Buckets []LatencyBucket `json:"buckets"`
}

// SLOBlame attributes part of a horizon's missed-deadline time to one
// (resource class, node) pair, in the critpath charge vocabulary.
type SLOBlame struct {
	Class string  `json:"class"`
	Node  string  `json:"node"`
	Ns    int64   `json:"ns"`
	Share float64 `json:"share"`
}

// SLOHorizon is one rung of the deadline ladder: how many jobs missed the
// horizon'th deadline and where the missing jobs' time had gone by then.
type SLOHorizon struct {
	Horizon    int        `json:"horizon"`
	DeadlineNs int64      `json:"deadline_ns"`
	Misses     int64      `json:"misses"`
	Dominant   string     `json:"dominant,omitempty"`
	Blame      []SLOBlame `json:"blame,omitempty"`
}

// SLOReport is the service-level summary of an open-loop run: the deadline
// ladder with per-horizon miss counts and blame mixes, plus goodput (jobs
// completing inside the first deadline per virtual second).
type SLOReport struct {
	TimeoutNs     int64        `json:"timeout_ns"`
	GoodputPerSec float64      `json:"goodput_per_sec"`
	Horizons      []SLOHorizon `json:"horizons"`
}

// RunReport is the machine-readable record of one simulation run: what was
// configured, how long it took, how busy every resource was, every registered
// instrument, and the load manager's decision audit log. Reports are
// deterministic: the same seed and configuration produce byte-identical JSON.
type RunReport struct {
	Schema     string          `json:"schema"`
	Name       string          `json:"name"`
	Seed       int64           `json:"seed"`
	Config     ClusterConfig   `json:"config"`
	Workload   map[string]any  `json:"workload,omitempty"`
	RuntimeSec float64         `json:"runtime_sec"`
	RuntimeNs  int64           `json:"runtime_ns"`
	Nodes      []NodeReport    `json:"nodes"`
	Counters   []CounterReport `json:"counters,omitempty"`
	Gauges     []GaugeReport   `json:"gauges,omitempty"`
	Latencies  []LatencyReport `json:"latencies,omitempty"`
	// SLO is the deadline-ladder summary, present for open-loop runs.
	SLO       *SLOReport `json:"slo,omitempty"`
	Decisions []Decision `json:"decisions,omitempty"`
	// Critpath is the latency-attribution summary, present when a
	// critical-path profiler was attached for the run.
	Critpath *critpath.Report `json:"critpath,omitempty"`
}

// Trajectory is a multi-run bench file: one point on the performance
// trajectory of the codebase, diffable against a committed baseline.
type Trajectory struct {
	Schema      string       `json:"schema"`
	GeneratedAt string       `json:"generated_at,omitempty"`
	Quick       bool         `json:"quick"`
	Runs        []*RunReport `json:"runs"`
}

// Fill snapshots every registered instrument and the decision log into rep.
// Instruments are sorted by name; decisions keep record order. Safe on a nil
// registry (leaves rep's instrument sections empty).
func (r *Registry) Fill(rep *RunReport) {
	if r == nil {
		return
	}
	for _, c := range r.counters {
		rep.Counters = append(rep.Counters, CounterReport{Name: c.name, Value: c.v})
	}
	sort.Slice(rep.Counters, func(i, j int) bool { return rep.Counters[i].Name < rep.Counters[j].Name })
	for _, g := range r.gauges {
		if len(g.samples) == 0 {
			continue
		}
		rep.Gauges = append(rep.Gauges, GaugeReport{Name: g.name, Samples: g.samples})
	}
	sort.Slice(rep.Gauges, func(i, j int) bool { return rep.Gauges[i].Name < rep.Gauges[j].Name })
	for _, h := range r.lats {
		if h.count == 0 {
			continue
		}
		rep.Latencies = append(rep.Latencies, h.Report())
	}
	sort.Slice(rep.Latencies, func(i, j int) bool { return rep.Latencies[i].Name < rep.Latencies[j].Name })
	rep.Decisions = r.decisions
}

// NewRunReport stamps the schema and the run identity/duration.
func NewRunReport(name string, seed int64, elapsed sim.Duration) *RunReport {
	return &RunReport{
		Schema:     ReportSchema,
		Name:       name,
		Seed:       seed,
		RuntimeSec: round6(elapsed.Seconds()),
		RuntimeNs:  int64(elapsed),
	}
}

// Marshal renders a report or trajectory as indented JSON with a trailing
// newline. encoding/json writes map keys sorted and floats canonically, so
// output is byte-stable for identical inputs.
func Marshal(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteJSON writes a report or trajectory to path.
func WriteJSON(path string, v any) error {
	b, err := Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadFile loads path, which may hold either a single RunReport or a bench
// Trajectory; a single report comes back as a one-run trajectory so callers
// handle both shapes uniformly.
func ReadFile(path string) (*Trajectory, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	switch probe.Schema {
	case ReportSchema:
		var rep RunReport
		if err := json.Unmarshal(b, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &Trajectory{Schema: TrajectorySchema, Runs: []*RunReport{&rep}}, nil
	case TrajectorySchema:
		var tr Trajectory
		if err := json.Unmarshal(b, &tr); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &tr, nil
	default:
		return nil, fmt.Errorf("%s: unknown schema %q (want %q or %q)",
			path, probe.Schema, ReportSchema, TrajectorySchema)
	}
}
