// Package trace records structured, typed events from a simulation run and
// streams them to consumers: Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing), a flat CSV time series, or the run store.
//
// The paper's emulator "is instrumented to report application progress,
// overall runtime, and resource utilization for each host and ASU in the
// target (emulated) system" (Section 5). A Sink is that instrument in
// structured form: every emulated node, resource and thread of control gets
// its own timeline (a track), and the instrumented layers — the sim kernel,
// disks, network interfaces, and functor pipelines — record spans and
// instants on it in virtual time. Application progress is read here: each
// functor `packet` span carries the records its stage consumed, and every
// queue has a depth counter track; overall runtime and per-node utilization
// are in package telemetry's RunReport. The sink keeps none of the events:
// it hands each to its consumers at the moment it is recorded, so a run of
// any length costs the same memory.
//
// A Sink is attached to a simulation when its cluster is built
// (cluster.Observers.Trace, which also pre-registers node tracks in a
// canonical order). A nil *Sink is a valid "tracing off" value: every method
// no-ops on a nil receiver, so instrumented code pays a single pointer check
// when tracing is disabled. Because the simulation is deterministic, the
// same seed produces a byte-identical event stream.
package trace

import (
	"slices"
	"strings"
)

// Time is a point in virtual time in nanoseconds, mirroring sim.Time without
// importing it (the sim kernel imports this package, not the reverse).
type Time = int64

// Track identifies one timeline in the trace: an emulated resource (a CPU,
// disk or NIC), a proc, or a queue. The zero Track is invalid.
type Track int32

// Event phases, following the Chrome trace-event format.
const (
	phaseBegin   = 'B' // span open
	phaseEnd     = 'E' // span close
	phaseSpan    = 'X' // complete span with duration
	phaseInstant = 'i' // point event
	phaseCounter = 'C' // counter sample
)

type trackInfo struct {
	group, name string
}

// Sink numbers tracks, counts events and passes each event to its consumers
// as it is recorded. Create one with New; the zero value is not usable (but a
// nil *Sink is, as "tracing disabled").
type Sink struct {
	tracks    []trackInfo // tracks[i] describes Track(i+1)
	shared    map[string]Track
	events    int
	consumers []Consumer
	// args is the one event's args in flight, copied in from the caller's
	// variadic slice (which therefore stays on the caller's stack) and
	// reused by the next event.
	args []Arg
}

// StreamEvent is one trace event in self-describing form: track identity is
// resolved to group/track names so a consumer needs no track table of its own.
type StreamEvent struct {
	TS    Time
	Dur   Time // phase 'X' only
	Ph    byte
	Group string
	Track string
	TID   int32 // the Sink-local track id, stable within one run
	Name  string
	Cat   string
	Args  []Arg // a Sink's event: its scratch, valid only during the call
}

// Consumer receives every event a Sink records while it is attached,
// synchronously and in record order. Events are recorded in dispatch order,
// which is deterministic, so the stream a deterministic run produces is
// itself deterministic. A consumer that keeps an event must copy its Args.
type Consumer interface {
	Event(e StreamEvent)
}

// Attach adds c to the consumers; every event recorded from now on reaches
// it. The cluster's observers attach before any proc exists, so a consumer
// attached before the cluster is built sees the whole run. No-op on a nil
// sink.
func (s *Sink) Attach(c Consumer) {
	if s != nil {
		s.consumers = append(s.consumers, c)
	}
}

// Detach removes c, which must compare equal (as a pointer does) to what was
// attached; it is a no-op when c is not attached or the sink is nil.
func (s *Sink) Detach(c Consumer) {
	if s == nil {
		return
	}
	if i := slices.Index(s.consumers, c); i >= 0 {
		s.consumers = slices.Delete(s.consumers, i, i+1)
	}
}

// New creates an empty sink.
func New() *Sink {
	return &Sink{shared: make(map[string]Track)}
}

// GroupOf derives a track's display group from a dotted resource name:
// "asu3.disk" belongs to group "asu3". Names without a dot group under
// themselves.
func GroupOf(name string) string {
	if i := strings.LastIndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// SharedTrack returns the track named name in group, creating it on first
// use. Repeated calls with the same name return the same track, so resources
// and instrumentation layers can rendezvous on a timeline by name.
func (s *Sink) SharedTrack(group, name string) Track {
	if s == nil {
		return 0
	}
	if tr, ok := s.shared[name]; ok {
		return tr
	}
	tr := s.addTrack(group, name)
	s.shared[name] = tr
	return tr
}

// NewTrack creates a fresh track, never merging with an existing one of the
// same name. Procs use it: two procs spawned with the same name must not
// interleave spans on one timeline.
func (s *Sink) NewTrack(group, name string) Track {
	if s == nil {
		return 0
	}
	return s.addTrack(group, name)
}

func (s *Sink) addTrack(group, name string) Track {
	s.tracks = append(s.tracks, trackInfo{group: group, name: name})
	return Track(len(s.tracks))
}

// Tracks reports the number of registered tracks.
func (s *Sink) Tracks() int {
	if s == nil {
		return 0
	}
	return len(s.tracks)
}

// Events reports the number of recorded events.
func (s *Sink) Events() int {
	if s == nil {
		return 0
	}
	return s.events
}

// add counts one event and hands it, with a copy of args, to every consumer.
func (s *Sink) add(tr Track, ph byte, ts, dur Time, name, cat string, args []Arg) {
	if s == nil || tr == 0 {
		return
	}
	s.events++
	if len(s.consumers) == 0 {
		return
	}
	ti := &s.tracks[tr-1]
	e := StreamEvent{TS: ts, Dur: dur, Ph: ph, Group: ti.group, Track: ti.name, TID: int32(tr), Name: name, Cat: cat}
	if len(args) > 0 {
		s.args = append(s.args[:0], args...)
		e.Args = s.args
	}
	for _, c := range s.consumers {
		c.Event(e)
	}
}

// Begin opens a span on tr at ts. Spans on one track must nest: close them
// with End in LIFO order.
func (s *Sink) Begin(tr Track, ts Time, name, cat string, args ...Arg) {
	s.add(tr, phaseBegin, ts, 0, name, cat, args)
}

// End closes the innermost open span on tr at ts.
func (s *Sink) End(tr Track, ts Time, args ...Arg) {
	s.add(tr, phaseEnd, ts, 0, "", "", args)
}

// Span records a complete [from, to) span on tr. Unlike Begin/End pairs it
// may be recorded before virtual time reaches `to` (device models book
// transfers into the future), as long as successive spans on one track do
// not move backwards.
func (s *Sink) Span(tr Track, from, to Time, name, cat string, args ...Arg) {
	if to < from {
		to = from
	}
	s.add(tr, phaseSpan, from, to-from, name, cat, args)
}

// Instant records a point event on tr at ts.
func (s *Sink) Instant(tr Track, ts Time, name, cat string, args ...Arg) {
	s.add(tr, phaseInstant, ts, 0, name, cat, args)
}

// Counter records a sample of the named counter on tr at ts. Viewers render
// successive samples as a stepped time series.
func (s *Sink) Counter(tr Track, ts Time, name string, value int64) {
	s.add(tr, phaseCounter, ts, 0, name, "", []Arg{Int("value", value)})
}
