// Package trace records structured, typed events from a simulation run and
// exports them as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing) or as a flat CSV time series.
//
// The paper's emulator "is instrumented to report application progress,
// overall runtime, and resource utilization for each host and ASU in the
// target (emulated) system" (Section 5). A Sink is that instrument in
// structured form: every emulated node, resource and thread of control gets
// its own timeline (a track), and the instrumented layers — the sim kernel,
// disks, network interfaces, and functor pipelines — append spans and
// instants to it in virtual time.
//
// A Sink is attached to a simulation when its cluster is built
// (cluster.Observers.Trace, which also pre-registers node tracks in a
// canonical order). A nil *Sink is a valid "tracing off" value: every method
// no-ops on a nil receiver, so instrumented code pays a single pointer check
// when tracing is disabled. Because the simulation is deterministic, the
// same seed produces a byte-identical exported trace.
package trace

import (
	"bufio"
	"fmt"
	"io"
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
	group int // index into groups
	name  string
}

// event is one stored event, 64 bytes: its args live in the sink's arg
// storage, nargs of them from index argOff on, rather than behind a slice
// header of its own.
type event struct {
	track  Track
	ph     byte
	nargs  uint8
	argOff uint32
	ts     Time
	dur    Time // phaseSpan only
	name   string
	cat    string
}

// Sink accumulates events for one simulation. Create one with New; the zero
// value is not usable (but a nil *Sink is, as "tracing disabled").
type Sink struct {
	groups   []string
	groupIdx map[string]int
	tracks   []trackInfo // tracks[i] describes Track(i+1)
	shared   map[string]Track
	// chunks holds the events in record order. Every chunk but the last is
	// full, and none is ever regrown, so recording copies nothing it already
	// holds however long the run.
	chunks [][]event
	// args holds every event's args, copied in from the caller's variadic
	// slice (which therefore stays on the caller's stack). Chunks are never
	// regrown either; one event's args never straddle two chunks, so a chunk
	// may end short when the next event's run did not fit.
	args     [][]Arg
	streamer func(StreamEvent)
}

const (
	eventChunk = 4096 // events per storage chunk (256 KiB of events)
	argChunk   = 4096 // args per storage chunk (192 KiB of args)
	maxArgs    = 255  // args per event: the count is a uint8
)

// StreamEvent is one trace event in self-describing form: track identity is
// resolved to group/track names so a consumer outside this package (the run
// recorder) can persist it without holding the Sink's track table.
type StreamEvent struct {
	TS    Time
	Dur   Time // phase 'X' only
	Ph    byte
	Group string
	Track string
	TID   int32 // the Sink-local track id, stable within one run
	Name  string
	Cat   string
	Args  []Arg // a Sink's event: its own storage, valid for the Sink's life
}

func (s *Sink) streamEvent(e *event) StreamEvent {
	ti := s.tracks[e.track-1]
	return StreamEvent{
		TS:    e.ts,
		Dur:   e.dur,
		Ph:    e.ph,
		Group: s.groups[ti.group],
		Track: ti.name,
		TID:   int32(e.track),
		Name:  e.name,
		Cat:   e.cat,
		Args:  s.argsOf(e),
	}
}

// argsOf returns e's args in the sink's storage, capped so that appending to
// them cannot overwrite the next event's; nil when e has none.
func (s *Sink) argsOf(e *event) []Arg {
	if e.nargs == 0 {
		return nil
	}
	i, n := int(e.argOff%argChunk), int(e.nargs)
	return s.args[e.argOff/argChunk][i : i+n : i+n]
}

// SetStreamer installs an observer called synchronously for every event
// recorded from now on — the hook the run recorder uses to stream spans into
// store segments. The cluster installs it on a still-empty sink when it is
// built, so the stream is the whole trace. Nil clears it; no-op on a nil sink.
//
// Events are appended in dispatch order, which is deterministic, so the
// stream a deterministic run produces is itself deterministic.
func (s *Sink) SetStreamer(fn func(StreamEvent)) {
	if s != nil {
		s.streamer = fn
	}
}

// New creates an empty sink.
func New() *Sink {
	return &Sink{
		groupIdx: make(map[string]int),
		shared:   make(map[string]Track),
	}
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

func (s *Sink) group(name string) int {
	if g, ok := s.groupIdx[name]; ok {
		return g
	}
	g := len(s.groups)
	s.groups = append(s.groups, name)
	s.groupIdx[name] = g
	return g
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
	s.tracks = append(s.tracks, trackInfo{group: s.group(group), name: name})
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
	n := 0
	for _, chunk := range s.chunks {
		n += len(chunk)
	}
	return n
}

// add records e with a copy of args; it panics on more than maxArgs.
func (s *Sink) add(e event, args []Arg) {
	if s == nil || e.track == 0 {
		return
	}
	if n := len(args); n > 0 {
		if n > maxArgs {
			panic(fmt.Sprintf("trace: event %q has %d args, more than %d", e.name, n, maxArgs))
		}
		last := len(s.args) - 1
		if last < 0 || len(s.args[last])+n > argChunk {
			s.args = append(s.args, make([]Arg, 0, argChunk))
			last++
		}
		e.argOff = uint32(last*argChunk + len(s.args[last]))
		e.nargs = uint8(n)
		s.args[last] = append(s.args[last], args...)
	}
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == eventChunk {
		s.chunks = append(s.chunks, make([]event, 0, eventChunk))
		last++
	}
	s.chunks[last] = append(s.chunks[last], e)
	if s.streamer != nil {
		s.streamer(s.streamEvent(&e))
	}
}

// Begin opens a span on tr at ts. Spans on one track must nest: close them
// with End in LIFO order.
func (s *Sink) Begin(tr Track, ts Time, name, cat string, args ...Arg) {
	s.add(event{track: tr, ph: phaseBegin, ts: ts, name: name, cat: cat}, args)
}

// End closes the innermost open span on tr at ts.
func (s *Sink) End(tr Track, ts Time, args ...Arg) {
	s.add(event{track: tr, ph: phaseEnd, ts: ts}, args)
}

// Span records a complete [from, to) span on tr. Unlike Begin/End pairs it
// may be recorded before virtual time reaches `to` (device models book
// transfers into the future), as long as successive spans on one track do
// not move backwards.
func (s *Sink) Span(tr Track, from, to Time, name, cat string, args ...Arg) {
	if to < from {
		to = from
	}
	s.add(event{track: tr, ph: phaseSpan, ts: from, dur: to - from, name: name, cat: cat}, args)
}

// Instant records a point event on tr at ts.
func (s *Sink) Instant(tr Track, ts Time, name, cat string, args ...Arg) {
	s.add(event{track: tr, ph: phaseInstant, ts: ts, name: name, cat: cat}, args)
}

// Counter records a sample of the named counter on tr at ts. Viewers render
// successive samples as a stepped time series.
func (s *Sink) Counter(tr Track, ts Time, name string, value int64) {
	s.add(event{track: tr, ph: phaseCounter, ts: ts, name: name}, []Arg{Int("value", value)})
}

// WriteJSON exports the trace in Chrome trace-event JSON ("JSON object
// format"): open the file in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Each track group becomes a process and each track a thread, named via
// metadata events. Timestamps are virtual-time microseconds.
func (s *Sink) WriteJSON(w io.Writer) error {
	if s == nil {
		_, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[]}`+"\n")
		return err
	}
	cw := NewChromeWriter(w)
	for g, name := range s.groups {
		cw.Process(g, name)
	}
	for i, ti := range s.tracks {
		cw.Thread(ti.group, int32(i+1), ti.name)
	}
	for _, chunk := range s.chunks {
		for i := range chunk {
			e := &chunk[i]
			if err := cw.Event(s.tracks[e.track-1].group, s.streamEvent(e)); err != nil {
				return err
			}
		}
	}
	return cw.Close()
}

// WriteCSV exports the trace as a flat time series, one event per row:
//
//	ts_ns,dur_ns,phase,group,track,name,cat,args
//
// args are rendered as semicolon-separated key=value pairs. The CSV fallback
// feeds plotting tools that do not speak the Chrome trace format.
func (s *Sink) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("ts_ns,dur_ns,phase,group,track,name,cat,args\n")
	if s != nil {
		var args []byte
		for _, chunk := range s.chunks {
			for i := range chunk {
				e := &chunk[i]
				ti := s.tracks[e.track-1]
				args = args[:0]
				for k, a := range s.argsOf(e) {
					if k > 0 {
						args = append(args, ';')
					}
					args = append(append(args, a.Key...), '=')
					args = a.appendText(args)
				}
				fmt.Fprintf(bw, "%d,%d,%c,%s,%s,%s,%s,%s\n",
					e.ts, e.dur, e.ph,
					csvField(s.groups[ti.group]), csvField(ti.name),
					csvField(e.name), csvField(e.cat), csvField(string(args)))
			}
		}
	}
	return bw.Flush() // bufio errors are sticky: Flush reports the first
}

func csvField(v string) string {
	if strings.ContainsAny(v, ",\"\n") {
		return `"` + strings.ReplaceAll(v, `"`, `""`) + `"`
	}
	return v
}
