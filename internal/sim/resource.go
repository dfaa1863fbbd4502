package sim

import "lmas/internal/trace"

// Resource is an exclusive-use server with two-level priority queueing: a
// CPU, a disk arm, or a network link endpoint. Procs acquire it, hold it
// for some span of virtual time, and release it; contenders queue in
// arrival order within their priority class, and the high class is always
// served first. Priority is the mechanism behind performance isolation:
// foreground storage requests can be scheduled ahead of queued functor
// computation (the paper's requirement that "storage-based computation
// should not occur if it interferes with storage access for other
// applications").
//
// Ownership is handed off directly on Release — no barging — so scheduling
// is deterministic.
type Resource struct {
	Timeline // name, busy time (completed holds only), recorder, trace track

	sim   *Sim
	owner *Proc
	high  []*Proc
	low   []*Proc

	acquireWhat string // "acquire " + name, precomputed so a contended acquire is allocation-free

	busyStart Time // start of current hold, valid when owner != nil

	holds, priorityHolds int64
}

// NewResource creates an idle resource.
func NewResource(s *Sim, name string) *Resource {
	r := &Resource{Timeline: NewTimeline(name), sim: s, acquireWhat: "acquire " + name}
	s.registerPurger(r)
	return r
}

// Acquire blocks p until it holds r exclusively (normal priority).
func (r *Resource) Acquire(p *Proc) { r.acquire(p, false) }

// AcquireHigh blocks p until it holds r, ahead of all normal-priority
// contenders (but behind the current holder and earlier high-priority
// waiters).
func (r *Resource) AcquireHigh(p *Proc) { r.acquire(p, true) }

func (r *Resource) acquire(p *Proc, high bool) {
	if r.owner == nil {
		r.take(p, high)
		return
	}
	if high {
		r.high = append(r.high, p)
	} else {
		r.low = append(r.low, p)
	}
	if pf := r.sim.profiler; pf != nil {
		from := r.sim.now
		p.park(r.acquireWhat)
		pf.Charge(p, ChargeQueueWait, r.name, from, r.sim.now)
	} else {
		p.park(r.acquireWhat)
	}
	// Ownership was transferred to us by Release before the wakeup.
	if r.owner != p {
		panic("sim: woke without ownership of " + r.name)
	}
}

func (r *Resource) take(p *Proc, high bool) {
	r.owner = p
	r.busyStart = r.sim.now
	r.holds++
	if high {
		r.priorityHolds++
	}
	if t := r.sim.tracer; t != nil {
		t.Begin(r.TraceTrack(t), int64(r.sim.now), "hold", "resource",
			trace.Str("proc", p.name), trace.Bool("high", high))
	}
}

// endHold accounts the hold that ends now and closes its trace span. The
// tracer is fixed before any proc exists (cluster.NewObserved), so a traced
// sim opened a span for every hold.
func (r *Resource) endHold() {
	r.Occupy(r.busyStart, r.sim.now)
	if t := r.sim.tracer; t != nil {
		t.End(r.TraceTrack(t), int64(r.sim.now))
	}
}

// Release relinquishes r, handing it to the longest-waiting high-priority
// contender, or failing that the longest-waiting normal one. Release
// panics if p does not hold r.
func (r *Resource) Release(p *Proc) {
	if r.owner != p {
		panic("sim: Release by non-owner of " + r.name)
	}
	r.endHold()
	var next *Proc
	var wasHigh bool
	if len(r.high) > 0 {
		next = r.high[0]
		copy(r.high, r.high[1:])
		r.high = r.high[:len(r.high)-1]
		wasHigh = true
	} else if len(r.low) > 0 {
		next = r.low[0]
		copy(r.low, r.low[1:])
		r.low = r.low[:len(r.low)-1]
	}
	if next == nil {
		r.owner = nil
		return
	}
	r.take(next, wasHigh)
	s := r.sim
	s.resumeAt(s.now, next)
}

// Use acquires r, holds it for d of virtual time, then releases it. This is
// the primitive for "spend d of CPU (or disk, or link) time".
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release(p)
}

// UseHigh is Use with high-priority admission.
func (r *Resource) UseHigh(p *Proc, d Duration) {
	r.AcquireHigh(p)
	p.Sleep(d)
	r.Release(p)
}

// InUse reports whether some proc currently holds r.
func (r *Resource) InUse() bool { return r.owner != nil }

// QueueLen reports how many procs are waiting to acquire r. If the
// resource is held, the holder is not counted.
func (r *Resource) QueueLen() int { return len(r.high) + len(r.low) }

// Holds reports total completed-or-current holds and how many entered via
// the high-priority path.
func (r *Resource) Holds() (total, priority int64) { return r.holds, r.priorityHolds }

// purge removes a killed proc from r's wait lists, and if the proc died
// holding r, accounts the partial hold and frees the resource. Called by
// killProcs so a shut-down sim leaves no dangling *Proc pointers behind.
func (r *Resource) purge(p *Proc) {
	r.high = removeProc(r.high, p)
	r.low = removeProc(r.low, p)
	if r.owner == p {
		r.endHold()
		// No handoff: every contender is being killed too.
		r.owner = nil
	}
}

func removeProc(list []*Proc, p *Proc) []*Proc {
	out := list[:0]
	for _, q := range list {
		if q != p {
			out = append(out, q)
		}
	}
	// Clear the tail so the backing array doesn't pin the removed proc.
	for i := len(out); i < len(list); i++ {
		list[i] = nil
	}
	return out
}
