// Package telemetry is the aggregate observability layer of the emulator: a
// per-Sim registry of typed instruments — monotonic counters, gauges sampled
// in virtual time, log-bucketed latency histograms — plus a load-manager decision
// audit log, all snapshotted into a machine-readable RunReport (report.go).
//
// The paper's emulator "is instrumented to report application progress,
// overall runtime, and resource utilization for each host and ASU in the
// target (emulated) system" (Section 5), and every figure of Section 6 is a
// comparison between runs. Package trace covers the event level ("what
// happened when"), application progress included: its functor packet spans
// and queue depth counters. This package covers the aggregate level ("how
// did this run do"): overall runtime and each node's windowed CPU, disk and
// NIC utilization over time (UtilTrace), in a form downstream tools
// (lmasreport diff, the bench trajectory, CI regression gates) can consume.
//
// Like the trace sink, the registry is nil-by-default: every method no-ops
// on a nil receiver and on nil instruments, so instrumented code pays one
// pointer check when telemetry is off. Instruments only observe — they never
// block a proc, charge virtual time, or touch the event queue — so attaching
// a registry cannot perturb simulated timings: the same seed produces the
// same completion times and a byte-identical report with or without other
// instrumentation attached.
package telemetry

import (
	"fmt"

	"lmas/internal/sim"
)

// Counter is a named monotonically increasing value.
type Counter struct {
	name string
	v    int64
}

// Add increments the counter; negative deltas panic (counters are
// monotonic). No-op on a nil counter.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	if delta < 0 {
		panic(fmt.Sprintf("telemetry: negative delta %d for counter %q", delta, c.name))
	}
	c.v += delta
}

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count (zero on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// GaugeSample is one (virtual time, value) observation.
type GaugeSample struct {
	T int64   `json:"t_ns"`
	V float64 `json:"v"`
}

// Gauge is a named value sampled in virtual time; successive samples form a
// time series (queue backlog, progress, memory in use).
type Gauge struct {
	name    string
	samples []GaugeSample
}

// Set records value v at virtual time t. No-op on a nil gauge.
func (g *Gauge) Set(t sim.Time, v float64) {
	if g == nil {
		return
	}
	g.samples = append(g.samples, GaugeSample{T: int64(t), V: v})
}

// Last reports the most recent sample value (zero when empty or nil).
func (g *Gauge) Last() float64 {
	if g == nil || len(g.samples) == 0 {
		return 0
	}
	return g.samples[len(g.samples)-1].V
}

// Samples returns the recorded series.
func (g *Gauge) Samples() []GaugeSample {
	if g == nil {
		return nil
	}
	return g.samples
}

// Reading is one named trigger value attached to a Decision. Readings are a
// slice, not a map, so audit entries serialize in a stable order.
type Reading struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

// Decision is one entry of the load-manager audit log: a reconfiguration
// (routing-policy switch, placement choice, parameter selection) with its
// virtual timestamp, the readings that triggered it, and what was chosen.
type Decision struct {
	T        int64     `json:"t_ns"`
	Source   string    `json:"source"`
	Action   string    `json:"action"`
	Detail   string    `json:"detail"`
	Readings []Reading `json:"readings,omitempty"`
}

// Registry holds one simulation run's instruments and audit log. Create one
// with NewRegistry; a nil *Registry is the valid "telemetry off" value.
type Registry struct {
	counters  []*Counter
	gauges    []*Gauge
	lats      []*LatencyHistogram
	byName    map[string]any
	decisions []Decision
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]any)}
}

// Counter returns the counter named name, creating it on first use. Returns
// nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if v, ok := r.byName[name]; ok {
		c, ok := v.(*Counter)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q already registered as %T", name, v))
		}
		return c
	}
	c := &Counter{name: name}
	r.byName[name] = c
	r.counters = append(r.counters, c)
	return c
}

// Gauge returns the gauge named name, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if v, ok := r.byName[name]; ok {
		g, ok := v.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q already registered as %T", name, v))
		}
		return g
	}
	g := &Gauge{name: name}
	r.byName[name] = g
	r.gauges = append(r.gauges, g)
	return g
}

// Decide appends one audit-log entry. No-op on a nil registry.
func (r *Registry) Decide(t sim.Time, source, action, detail string, readings ...Reading) {
	if r == nil {
		return
	}
	r.decisions = append(r.decisions, Decision{T: int64(t), Source: source, Action: action, Detail: detail, Readings: readings})
}

// Decisions returns the audit log in record order.
func (r *Registry) Decisions() []Decision {
	if r == nil {
		return nil
	}
	return r.decisions
}
