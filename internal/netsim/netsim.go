// Package netsim models the storage interconnect (SAN) connecting hosts and
// ASUs.
//
// The paper's network model (Section 5) "uses only host-ASU communication,
// and assumes that the processor saturates before the individual network
// links". We model each node's network interface as a timeline with a
// bandwidth; a message from A to B occupies both endpoints' interfaces for
// its serialization time and is delivered one propagation latency after the
// transfer completes. With the default (generous) bandwidth the network is
// never the bottleneck, matching the paper's assumption, but constrained
// configurations can be explored by lowering it.
package netsim

import (
	"fmt"

	"lmas/internal/sim"
	"lmas/internal/trace"
)

// Iface is one node's network interface.
type Iface struct {
	sim.Timeline // serialization time on this interface

	s  *sim.Sim
	bw float64 // bytes per second

	sentBytes, recvBytes int64
	sent, received       int64
}

// NewIface creates an interface with the given bandwidth in bytes/second.
func NewIface(s *sim.Sim, name string, bw float64) *Iface {
	if bw <= 0 {
		panic("netsim: bandwidth must be positive")
	}
	return &Iface{Timeline: sim.NewTimeline(name), s: s, bw: bw}
}

// Stats reports cumulative message and byte counts.
func (f *Iface) Stats() (sent, received, sentBytes, recvBytes int64) {
	return f.sent, f.received, f.sentBytes, f.recvBytes
}

func (f *Iface) String() string {
	return fmt.Sprintf("iface(%s, %.0f MB/s)", f.Name(), f.bw/1e6)
}

// Net is the interconnect fabric.
type Net struct {
	s       *sim.Sim
	latency sim.Duration
}

// New creates a fabric with the given per-message propagation latency.
func New(s *sim.Sim, latency sim.Duration) *Net {
	if latency < 0 {
		panic("netsim: negative latency")
	}
	return &Net{s: s, latency: latency}
}

// Send transfers size bytes from interface src to interface dst, blocking p
// until the message has been delivered (serialization on the slower of the
// two endpoints, then propagation latency). Zero-size messages occupy no
// wire time and leave both endpoints' timelines untouched, but — like any
// message — they queue behind transfers already in flight on either endpoint
// before incurring latency: a control message cannot overtake the data ahead
// of it on the wire. Use Send for request/response exchanges whose initiator
// waits for delivery; use Stream for pipelined bulk flows.
func (n *Net) Send(p *sim.Proc, src, dst *Iface, size int) {
	n.transfer(p, src, dst, size, true)
}

// Stream transfers size bytes like Send but blocks p only for the
// serialization time: in a pipelined bulk flow the sender issues the next
// message as soon as the wire is free, and per-message propagation latency
// is hidden by the stream. Successive messages still serialize on the
// endpoints, so bandwidth is conserved exactly.
func (n *Net) Stream(p *sim.Proc, src, dst *Iface, size int) {
	n.transfer(p, src, dst, size, false)
}

func (n *Net) transfer(p *sim.Proc, src, dst *Iface, size int, withLatency bool) {
	now := n.s.Now()
	start := max(now, src.BusyUntil(), dst.BusyUntil())
	ser := sim.Duration(float64(size) / min(src.bw, dst.bw) * float64(sim.Second))
	end := start.Add(ser)
	if end > start {
		// Zero-size messages occupy no wire time: they wait for in-flight
		// transfers (start above) but must not advance either endpoint's
		// timeline — otherwise a control message would mark an idle
		// interface busy until the *other* endpoint's backlog clears.
		src.Occupy(start, end)
		dst.Occupy(start, end)
		if t := n.s.Tracer(); t != nil {
			kind := "stream"
			if withLatency {
				kind = "send"
			}
			t.Span(src.TraceTrack(t), int64(start), int64(end), kind, "net",
				trace.Int("bytes", int64(size)), trace.Str("to", dst.Name()))
			t.Span(dst.TraceTrack(t), int64(start), int64(end), "recv", "net",
				trace.Int("bytes", int64(size)), trace.Str("from", src.Name()))
		}
	}
	src.sent++
	src.sentBytes += int64(size)
	dst.received++
	dst.recvBytes += int64(size)
	deliver := end
	if withLatency {
		deliver = deliver.Add(n.latency)
	}
	if deliver > now {
		if pf := n.s.Profiler(); pf != nil {
			pf.Charge(p, sim.ChargeNet, src.Name(), now, deliver)
		}
		p.Sleep(sim.Duration(deliver - now))
	}
}
