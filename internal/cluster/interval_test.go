package cluster

import (
	"fmt"
	"testing"

	"lmas/internal/sim"
	"lmas/internal/trace"
)

// interval is a [from, to) stretch of virtual time.
type interval struct{ from, to sim.Time }

// busyLog is a BusyRecorder that keeps every interval it is given.
type busyLog struct{ ivs []interval }

func (b *busyLog) RecordBusy(from, to sim.Time) { b.ivs = append(b.ivs, interval{from, to}) }

// spanLog is a trace consumer that keeps the busy intervals each device track
// shows: 'X' spans as they are, 'B'/'E' pairs (a Resource's holds) once
// closed.
type spanLog struct {
	ivs  map[string][]interval
	open map[string]sim.Time
}

func (l *spanLog) Event(e trace.StreamEvent) {
	switch e.Ph {
	case 'X':
		l.ivs[e.Track] = append(l.ivs[e.Track], interval{sim.Time(e.TS), sim.Time(e.TS + e.Dur)})
	case 'B':
		l.open[e.Track] = sim.Time(e.TS)
	case 'E':
		l.ivs[e.Track] = append(l.ivs[e.Track], interval{l.open[e.Track], sim.Time(e.TS)})
	}
}

// charge is one profiler charge.
type charge struct {
	kind sim.ChargeKind
	interval
}

// chargeLog is a profiler that keeps every charge it is given.
type chargeLog struct{ charges []charge }

func (c *chargeLog) Charge(p *sim.Proc, kind sim.ChargeKind, res string, from, to sim.Time) {
	c.charges = append(c.charges, charge{kind, interval{from, to}})
}

// TestEachIntervalReportedOnce drives cold and prefetched disk reads, writes
// and flushes, NIC streams and sends, and CPU holds at both priorities on one
// proc, with a recorder on every device, a trace consumer and a profiler. On
// every device the recorder and the trace see the same busy intervals, each
// once; the profiler sees each interval the proc was blocked, once, with the
// operation's kind; a zero-size message and a zero-length wait reach none of
// them.
func TestEachIntervalReportedOnce(t *testing.T) {
	p := DefaultParams()
	p.ASUs = 1
	c := New(p)
	host, asu := c.Hosts[0], c.ASUs[0]
	spans := &spanLog{ivs: map[string][]interval{}, open: map[string]sim.Time{}}
	sink := trace.New()
	sink.Attach(spans)
	c.Sim.SetTracer(sink)
	prof := &chargeLog{}
	c.Sim.SetProfiler(prof)
	busy := map[string]*busyLog{}
	for _, dev := range []interface {
		Name() string
		SetRecorder(sim.BusyRecorder)
	}{host.CPU, host.NIC, asu.CPU, asu.Disk, asu.NIC} {
		busy[dev.Name()] = &busyLog{}
		dev.SetRecorder(busy[dev.Name()])
	}

	var want []charge
	c.Sim.Spawn("driver", func(pr *sim.Proc) {
		op := func(kind sim.ChargeKind, do func()) {
			from := pr.Now()
			do()
			if to := pr.Now(); to > from {
				want = append(want, charge{kind, interval{from, to}})
			}
		}
		disk, cpu, net := sim.ChargeDisk, sim.ChargeCPU, sim.ChargeNet
		op(disk, func() { asu.Disk.Read(pr, 1<<20) })                  // cold: seek + transfer
		op(cpu, func() { asu.Compute(pr, 1e6) })                       // outlasts the prefetch
		op(disk, func() { asu.Disk.Read(pr, 1<<20) })                  // prefetched: no wait
		op(disk, func() { asu.Disk.Write(pr, 1<<20) })                 // accepted at once
		op(disk, func() { asu.Disk.Write(pr, 1<<20) })                 // waits for the first write
		op(disk, func() { asu.Disk.Flush(pr) })                        // waits for the second
		op(disk, func() { asu.Disk.Flush(pr) })                        // nothing left: no wait
		op(cpu, func() { asu.ServeRequest(pr, 1e3) })                  // high-priority hold
		op(net, func() { c.Net.Stream(pr, asu.NIC, host.NIC, 1<<16) }) // serialization
		op(net, func() { c.Net.Stream(pr, asu.NIC, host.NIC, 0) })     // zero-size: nothing
		op(net, func() { c.Net.Send(pr, host.NIC, asu.NIC, 1<<10) })   // serialization + latency
		op(cpu, func() { host.Compute(pr, 1e5) })
	})
	if err := c.Sim.Run(); err != nil {
		t.Fatal(err)
	}

	for name, want := range map[string]int{"host0.cpu": 1, "host0.nic": 2, "asu0.cpu": 2, "asu0.disk": 4, "asu0.nic": 2} {
		got := busy[name].ivs
		if len(got) != want {
			t.Errorf("%s: recorder saw %d busy intervals, want %d: %v", name, len(got), want, got)
		}
		if fmt.Sprint(spans.ivs[name]) != fmt.Sprint(got) {
			t.Errorf("%s: trace spans %v, recorder %v", name, spans.ivs[name], got)
		}
		for _, iv := range got {
			if iv.to <= iv.from {
				t.Errorf("%s: empty busy interval %v reported", name, iv)
			}
		}
	}
	if len(want) != 8 {
		t.Errorf("driver blocked %d times, want 8 (every op but the prefetched read, the first write, the idle flush and the empty message)", len(want))
	}
	if fmt.Sprint(prof.charges) != fmt.Sprint(want) {
		t.Errorf("profiler charges %v, want the blocked intervals %v", prof.charges, want)
	}
}
