// Package disk models the storage device attached to each ASU.
//
// Following the paper's emulator (Section 5): "The disk simulation does not
// model detailed seek and rotational times because our current experiments
// perform all I/O sequentially. The disk simulation uses a base aggregate
// transfer rate to calculate elapsed time under an I/O load, assuming
// read-ahead and write caching for sequential I/O: the disk initiates the
// next I/O automatically, and writes wait only for the previous write to
// complete."
//
// Concretely:
//
//   - The device is a single timeline (busyUntil) shared by all transfers,
//     so concurrent streams on one disk divide its bandwidth.
//   - Sequential reads are prefetched: the transfer of block k+1 starts when
//     block k is delivered, so a consumer that processes a block slower than
//     the disk transfers one never waits (after the first block).
//   - Writes are buffered: Write returns as soon as the device has accepted
//     the block, blocking only while the previous write is still in flight.
//     Flush waits for all buffered writes to retire.
package disk

import (
	"fmt"

	"lmas/internal/sim"
	"lmas/internal/trace"
)

// Disk is a sequential-transfer storage device in virtual time. All methods
// that take a *sim.Proc may block that proc; they must be called from the
// currently running proc.
type Disk struct {
	// The device timeline: every transfer is booked where the previous one
	// ended, so concurrent streams divide the bandwidth.
	sim.Timeline

	s    *sim.Sim
	rate float64 // bytes per second of virtual time
	// seek is charged at the start of every cold read (the first read
	// of a sequential run): arm positioning. Sequential experiments are
	// barely affected; random-access structures (Arrays, index lookups)
	// pay it on every access, which is what makes request fan-out
	// expensive on real disks.
	seek sim.Duration

	// defRun is the device-level read stream used by Read/EndReadRun;
	// independent streams open their own Run with OpenRun.
	defRun Run

	// Write-behind state: completion time of the most recent write.
	writeDone sim.Time

	// Counters.
	readBytes, writeBytes int64
	reads, writes         int64
}

// Run is the read-ahead state of one sequential read stream: whether the
// stream is warm, and when its previous block was delivered (the instant
// prefetch of the next block began). Each independent stream must use its
// own Run; if two interleaved streams shared one, the second stream's cold
// read would skip its seek charge and back-date its prefetch to the other
// stream's delivery.
type Run struct {
	d            *Disk
	active       bool
	lastDelivery sim.Time
}

// New creates a disk transferring rate bytes per second of virtual time.
func New(s *sim.Sim, name string, rate float64) *Disk {
	if rate <= 0 {
		panic("disk: rate must be positive")
	}
	d := &Disk{Timeline: sim.NewTimeline(name), s: s, rate: rate}
	d.defRun.d = d
	return d
}

// SetSeek sets the positioning time charged on cold reads (default zero).
func (d *Disk) SetSeek(seek sim.Duration) {
	if seek < 0 {
		seek = 0
	}
	d.seek = seek
}

// xferDur converts a byte count to transfer time.
func (d *Disk) xferDur(n int) sim.Duration {
	return sim.Duration(float64(n) / d.rate * float64(sim.Second))
}

// book reserves the device for a setup time (arm positioning, zero for
// writes and warm reads) plus a transfer of n bytes, starting no earlier than
// from, and returns the occupied interval.
func (d *Disk) book(from sim.Time, n int, setup sim.Duration) (start, end sim.Time) {
	start = max(from, d.BusyUntil())
	end = start.Add(setup + d.xferDur(n))
	d.Occupy(start, end)
	return start, end
}

// Read performs a sequential read of n bytes on the disk's default stream,
// blocking p until the data is available. Within a read run the device
// prefetches, so the effective wait is max(0, transferTime -
// timeSinceLastRead). Callers interleaving several independent sequential
// streams on one disk must give each its own stream via OpenRun; Read and
// EndReadRun drive a single device-level stream.
func (d *Disk) Read(p *sim.Proc, n int) { d.defRun.Read(p, n) }

// EndReadRun marks the end of the default stream's read run: the next Read
// is treated as cold (no prefetch overlap with past processing).
func (d *Disk) EndReadRun() { d.defRun.End() }

// OpenRun creates a new, cold sequential read stream on d. Streams share
// the device timeline (concurrent transfers divide bandwidth) but each
// keeps its own read-ahead state, so interleaved streams pay their own
// cold-read seek and prefetch only against their own deliveries.
func (d *Disk) OpenRun() *Run { return &Run{d: d} }

// Read performs a sequential read of n bytes on this stream, blocking p
// until the data is available; see Disk.Read.
func (r *Run) Read(p *sim.Proc, n int) {
	d := r.d
	if n <= 0 {
		return
	}
	now := d.s.Now()
	from := now
	extra := sim.Duration(0)
	if r.active {
		if r.lastDelivery < now {
			// Prefetch began when the previous block was delivered.
			from = r.lastDelivery
		}
	} else {
		extra = d.seek // cold read: position the arm first
	}
	start, end := d.book(from, n, extra)
	d.reads++
	d.readBytes += int64(n)
	if t := d.s.Tracer(); t != nil {
		kind := "read.cold"
		if r.active {
			kind = "read.prefetch"
		}
		t.Span(d.TraceTrack(t), int64(start), int64(end), kind, "disk",
			trace.Int("bytes", int64(n)))
	}
	if end > now {
		if pf := d.s.Profiler(); pf != nil {
			pf.Charge(p, sim.ChargeDisk, d.Name(), now, end)
		}
		p.Sleep(sim.Duration(end - now))
	}
	r.active = true
	r.lastDelivery = d.s.Now()
}

// End marks the end of this stream's read run: its next Read is cold.
func (r *Run) End() { r.active = false }

// Write accepts n bytes for writing. It blocks p only while the previous
// write is still in flight (write-behind with one outstanding write), then
// books the transfer and returns; the data retires in the background.
func (d *Disk) Write(p *sim.Proc, n int) {
	if n <= 0 {
		return
	}
	now := d.s.Now()
	if d.writeDone > now {
		if pf := d.s.Profiler(); pf != nil {
			pf.Charge(p, sim.ChargeDisk, d.Name(), now, d.writeDone)
		}
		p.Sleep(sim.Duration(d.writeDone - now))
	}
	start, end := d.book(d.s.Now(), n, 0)
	d.writeDone = end
	d.writes++
	d.writeBytes += int64(n)
	if t := d.s.Tracer(); t != nil {
		t.Span(d.TraceTrack(t), int64(start), int64(end), "write", "disk",
			trace.Int("bytes", int64(n)))
	}
}

// Flush blocks p until all accepted writes have retired.
func (d *Disk) Flush(p *sim.Proc) {
	now := d.s.Now()
	if d.writeDone > now {
		if pf := d.s.Profiler(); pf != nil {
			pf.Charge(p, sim.ChargeDisk, d.Name(), now, d.writeDone)
		}
		p.Sleep(sim.Duration(d.writeDone - now))
	}
}

// Stats reports cumulative operation and byte counts.
func (d *Disk) Stats() (reads, writes, readBytes, writeBytes int64) {
	return d.reads, d.writes, d.readBytes, d.writeBytes
}

func (d *Disk) String() string {
	return fmt.Sprintf("disk(%s, %.0f MB/s)", d.Name(), d.rate/1e6)
}
