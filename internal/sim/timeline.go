package sim

import "lmas/internal/trace"

// BusyRecorder receives the [from, to) interval of every completed hold or
// booked transfer on a device. Implementations aggregate these into
// utilization traces.
type BusyRecorder interface {
	RecordBusy(from, to Time)
}

// Timeline is the one instrument of an exclusive device — Resource here,
// disk.Disk and netsim.Iface by embedding it. It reports each interval the
// device spends busy (Occupy: busy total, BusyRecorder, trace span) and each
// interval it blocks a proc (Block: profiler charge of the device's kind), so
// no device model reaches for the sim's tracer or profiler itself.
type Timeline struct {
	s        *Sim
	name     string
	kind     ChargeKind
	busy     Duration
	recorder BusyRecorder
	// busyUntil is the end of the last occupied interval. The devices that
	// book transfers into the future (disk, NIC) start the next one here;
	// a Resource queues procs instead and never reads it.
	busyUntil Time
	track     trace.Track
}

// NewTimeline names an idle timeline on s whose blocked intervals are
// charged as kind.
func NewTimeline(s *Sim, name string, kind ChargeKind) Timeline {
	return Timeline{s: s, name: name, kind: kind}
}

// Name reports the device's name.
func (tl *Timeline) Name() string { return tl.name }

// SetRecorder attaches rec to receive busy intervals; nil detaches.
func (tl *Timeline) SetRecorder(rec BusyRecorder) { tl.recorder = rec }

// Busy reports the total time the device has been occupied: completed holds
// for a Resource, booked transfers for a disk or NIC.
func (tl *Timeline) Busy() Duration { return tl.busy }

// BusyUntil reports the end of the last occupied interval.
func (tl *Timeline) BusyUntil() Time { return tl.busyUntil }

// Occupy marks the device busy over [start, end) moving bytes: the timeline
// now ends at end, and a non-empty interval adds to the busy total, reaches
// the recorder and, on a traced sim only, builds its span: name on the
// device's track, category its charge kind ("disk", "net"), a bytes arg and,
// when peerKey is set, a peerKey arg naming peer.
func (tl *Timeline) Occupy(start, end Time, name string, bytes int64, peerKey, peer string) {
	if !tl.occupy(start, end) {
		return
	}
	if t := tl.s.tracer; t != nil {
		args := [...]trace.Arg{trace.Int("bytes", bytes), trace.Str(peerKey, peer)}
		n := len(args)
		if peerKey == "" {
			n = 1
		}
		t.Span(tl.traceTrack(t), int64(start), int64(end), name, tl.kind.String(), args[:n]...)
	}
}

// occupy is Occupy without the span, for a Resource whose holds trace as
// begin/end pairs; it reports whether the interval was non-empty.
func (tl *Timeline) occupy(start, end Time) bool {
	tl.busyUntil = end
	if end <= start {
		return false
	}
	tl.busy += Duration(end - start)
	if tl.recorder != nil {
		tl.recorder.RecordBusy(start, end)
	}
	return true
}

// Block charges [now, until) to the profiler as the device's kind and sleeps
// p until then, if until is in the future. It parks p itself rather than
// through Sleep: see parkCharged on call frames below a wait.
func (tl *Timeline) Block(p *Proc, until Time) {
	s := tl.s
	if until <= s.now {
		return
	}
	s.charge(p, tl.kind, tl.name, s.now, until)
	s.resumeAt(until, p)
	p.park("sleep")
}

// traceTrack returns the device's timeline in t, creating it on first use.
// Devices rendezvous on their name, so a track the cluster pre-registered in
// node order is reused here.
func (tl *Timeline) traceTrack(t *trace.Sink) trace.Track {
	if tl.track == 0 {
		tl.track = t.SharedTrack(trace.GroupOf(tl.name), tl.name)
	}
	return tl.track
}
