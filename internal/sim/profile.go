package sim

// ChargeKind classifies an interval of virtual time charged to a proc: what
// the proc was doing (or waiting for) during the interval. The kinds mirror
// the paper's bottleneck taxonomy (host CPU vs ASU CPU vs disk vs network,
// Section 2.2): service kinds are time a resource spent working for the proc,
// wait kinds are time the proc spent queued behind other work or blocked on a
// condition.
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

// Profiler receives latency attribution charges: a device Timeline's blocked
// intervals, a Resource's holds and queueing, a Cond's waits. Each charge
// says: proc p was blocked by (or served by) resource res for [from, to) of
// virtual time, for reason kind; empty intervals are not charged. Like the
// trace sink, a profiler is a pure observer — implementations must not call
// back into the simulation, and attaching one never changes virtual-time
// behaviour. Unprofiled runs pay one nil check per site.
type Profiler interface {
	Charge(p *Proc, kind ChargeKind, res string, from, to Time)
}

// SetProfiler attaches a latency-attribution profiler. Like SetTracer it is
// called before the first Spawn (proc shells are never pooled on a profiled
// sim, and the profiler keys its state by *Proc).
func (s *Sim) SetProfiler(pf Profiler) { s.profiler = pf }

// charge reports [from, to) of p's time to the profiler, if one is attached;
// an empty interval reaches none.
func (s *Sim) charge(p *Proc, kind ChargeKind, res string, from, to Time) {
	if s.profiler != nil && to > from {
		s.profiler.Charge(p, kind, res, from, to)
	}
}
