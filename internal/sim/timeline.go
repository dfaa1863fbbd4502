package sim

import "lmas/internal/trace"

// BusyRecorder receives the [from, to) interval of every completed hold or
// booked transfer on a device. Implementations aggregate these into
// utilization traces.
type BusyRecorder interface {
	RecordBusy(from, to Time)
}

// Timeline is the busy-time bookkeeping every exclusive device model shares —
// Resource here, disk.Disk and netsim.Iface by embedding it: the device's
// name, its accumulated busy time, the recorder that sees each busy interval,
// and its lazily created trace track.
type Timeline struct {
	name     string
	busy     Duration
	recorder BusyRecorder
	// busyUntil is the end of the last occupied interval. The devices that
	// book transfers into the future (disk, NIC) start the next one here;
	// a Resource queues procs instead and never reads it.
	busyUntil Time
	track     trace.Track
}

// NewTimeline names an idle timeline.
func NewTimeline(name string) Timeline { return Timeline{name: name} }

// Name reports the device's name.
func (tl *Timeline) Name() string { return tl.name }

// SetRecorder attaches rec to receive busy intervals; nil detaches.
func (tl *Timeline) SetRecorder(rec BusyRecorder) { tl.recorder = rec }

// Busy reports the total time the device has been occupied: completed holds
// for a Resource, booked transfers for a disk or NIC.
func (tl *Timeline) Busy() Duration { return tl.busy }

// BusyUntil reports the end of the last occupied interval.
func (tl *Timeline) BusyUntil() Time { return tl.busyUntil }

// Occupy marks the device busy over [start, end): the timeline now ends at
// end, and a non-empty interval adds to the busy total and reaches the
// recorder.
func (tl *Timeline) Occupy(start, end Time) {
	tl.busyUntil = end
	if end > start {
		tl.busy += Duration(end - start)
		if tl.recorder != nil {
			tl.recorder.RecordBusy(start, end)
		}
	}
}

// TraceTrack returns the device's timeline in t, creating it on first use.
// Devices rendezvous on their name, so a track the cluster pre-registered in
// node order is reused here.
func (tl *Timeline) TraceTrack(t *trace.Sink) trace.Track {
	if tl.track == 0 {
		tl.track = t.SharedTrack(trace.GroupOf(tl.name), tl.name)
	}
	return tl.track
}
