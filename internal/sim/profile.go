package sim

// ChargeKind classifies an interval of virtual time charged to a proc by the
// kernel or a device model built on it: what the proc was doing (or waiting
// for) during the interval. The kinds mirror the paper's bottleneck taxonomy
// (host CPU vs ASU CPU vs disk vs network, Section 2.2): service kinds are
// time a resource spent working for the proc, wait kinds are time the proc
// spent queued behind other work or blocked on a condition.
type ChargeKind uint8

const (
	// ChargeCPU is processor service time: a completed hold on a CPU
	// resource doing this proc's computation.
	ChargeCPU ChargeKind = iota
	// ChargeDisk is storage service time: the interval a disk transfer
	// (including queueing on the device timeline) blocked the proc.
	ChargeDisk
	// ChargeNet is interconnect service time: the interval a network
	// transfer (including queueing on the endpoint timelines) blocked
	// the proc.
	ChargeNet
	// ChargeQueueWait is time spent queued for exclusive use of a
	// Resource behind other holders (CPU contention).
	ChargeQueueWait
	// ChargeCondWait is time parked on a condition variable — in the
	// pipeline, backpressure from a full downstream queue or starvation
	// on an empty upstream one.
	ChargeCondWait

	// NumChargeKinds is the number of distinct charge kinds.
	NumChargeKinds = 5
)

func (k ChargeKind) String() string {
	switch k {
	case ChargeCPU:
		return "cpu"
	case ChargeDisk:
		return "disk"
	case ChargeNet:
		return "net"
	case ChargeQueueWait:
		return "queue-wait"
	case ChargeCondWait:
		return "cond-wait"
	}
	return "unknown"
}

// Profiler receives latency attribution charges from the kernel and the
// device models layered on it. Each charge says: proc p was blocked by (or
// served by) resource res for [from, to) of virtual time, for reason kind.
// Like the trace sink, a profiler is a pure observer — implementations must
// not call back into the simulation, and attaching one never changes
// virtual-time behaviour. Unprofiled runs pay one nil check per site.
type Profiler interface {
	Charge(p *Proc, kind ChargeKind, res string, from, to Time)
}

// SetProfiler attaches a latency-attribution profiler. Like SetTracer it is
// called before the first Spawn (proc shells are never pooled on a profiled
// sim, and the profiler keys its state by *Proc).
func (s *Sim) SetProfiler(pf Profiler) { s.profiler = pf }

// Profiler returns the attached profiler, or nil. Device models layered on
// the sim (disk, netsim) charge their blocking intervals through it.
func (s *Sim) Profiler() Profiler { return s.profiler }
