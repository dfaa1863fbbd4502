package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
	"sort"
	"strings"

	"lmas/internal/trace"
)

// event is a scheduled callback or proc resumption. Events with equal times
// fire in schedule order (ascending seq). An event resumes proc when proc is
// non-nil and calls fn otherwise; tagging resumptions with the proc (instead
// of closing over it) keeps the hot scheduling paths allocation-free.
type event struct {
	t Time
	// viaWheel marks an event that was staged in the timer wheel before
	// spilling into the heap; countPopped uses it to attribute dispatched
	// events to the scheduler tier.
	viaWheel bool
	seq      uint64
	fn       func()
	proc     *Proc
}

// before reports whether e fires ahead of f in (time, seq) order.
func (e event) before(f event) bool {
	if e.t != f.t {
		return e.t < f.t
	}
	return e.seq < f.seq
}

// Sim is a discrete-event simulator. The zero value is not usable; create
// one with New. The goroutine that calls Run or Shutdown is the
// scheduler and the only dispatcher: it pops events in (time, seq) order and
// runs each callback or proc resumption to completion before the next. Procs
// are runtime coroutines (iter.Pull) that the scheduler switches into and
// that switch back when they park, so exactly one flow of control touches
// the Sim at any moment and no locking is needed.
type Sim struct {
	now Time
	// events is a hand-rolled binary min-heap ordered by (t, seq).
	// It is not container/heap because that interface boxes every popped
	// event into an interface value — one allocation per event — and this
	// is the hottest path in the emulator. The heap holds only current and
	// near-deadline events; far-future timers stage in wheel until
	// syncTier spills them (see wheel.go).
	events eventHeap
	// wheel is the hierarchical timer tier, allocated lazily on the first
	// far-future insert so short sims never pay its footprint.
	wheel *timerWheel
	// disableWheel forces every event through the reference heap; the
	// wheel-vs-heap differential tests use it to prove the tier never
	// reorders a dispatch.
	disableWheel bool
	// nowq holds events scheduled for the current instant, consumed before
	// the heap advances time. Scheduling "at now" is the dominant case
	// (proc wakeups from conds, resources, and spawns), and the ring makes
	// it O(1) instead of an O(log n) heap round trip. Invariant: every
	// queued entry has t == now (the ring drains before time advances), so
	// its FIFO order is exactly (t, seq) order.
	nowq nowRing
	// seq is the tie-break counter: the schedule order of every event.
	seq uint64

	procs map[*Proc]bool // all live procs

	err error // the run's first failure (Fail or a proc panic), for Run

	// tracer, when non-nil, receives structured events from the kernel and
	// from device models built on it. Untraced runs pay one nil check.
	tracer *trace.Sink

	// profiler, when non-nil, receives latency-attribution charges from
	// the kernel and device models. Unprofiled runs pay one nil check.
	profiler Profiler

	// waitLists holds every wait-list owner (resources, conds) created on
	// this sim, so killProcs can purge killed procs from their queues.
	waitLists []purger

	// freeProcs is the pool of exited proc shells whose coroutines are
	// suspended awaiting reuse; see Proc.run. Profiled sims never pool (the
	// critpath profiler keys state by *Proc).
	freeProcs []*Proc

	stats SchedStats
}

// SchedStats reports scheduler-tier activity: how many far-future events
// the timer wheel absorbed, how many of those were spilled into the heap
// and dispatched, and how many proc spawns reused a pooled shell. Every
// count is a pure function of the schedule, so it is byte-identical with
// or without observers.
type SchedStats struct {
	WheelHits  uint64
	HeapSpills uint64
	ProcReuses uint64
}

// SchedStats returns the scheduler-tier counters accumulated so far.
func (s *Sim) SchedStats() SchedStats { return s.stats }

// purger is a wait-list owner that can remove a killed proc from its queue.
type purger interface {
	purge(p *Proc)
}

func (s *Sim) registerPurger(pg purger) { s.waitLists = append(s.waitLists, pg) }

// SetTracer attaches a trace sink. It must be called before the first Spawn
// (cluster.NewObserved is the one caller): a proc's track is created when it
// is spawned, and parks and resource holds close the spans they assume they
// opened.
func (s *Sim) SetTracer(t *trace.Sink) { s.tracer = t }

// Tracer returns the attached trace sink, or nil. Device models record their
// transfers through their Timeline instead; the cluster reads it to connect
// its recorder to the stream.
func (s *Sim) Tracer() *trace.Sink { return s.tracer }

// New creates an empty simulation at time zero.
func New() *Sim {
	return &Sim{procs: make(map[*Proc]bool)}
}

// Now reports the current virtual time.
func (s *Sim) Now() Time { return s.now }

// nowRing is the FIFO ring of current-instant events.
type nowRing struct {
	q    []event
	head int
}

// len reports the number of queued events.
func (r *nowRing) len() int { return len(r.q) - r.head }

// pop removes and returns the head; the caller checks len first.
func (r *nowRing) pop() event {
	e := r.q[r.head]
	r.q[r.head] = event{}
	r.head++
	if r.head == len(r.q) {
		r.q = r.q[:0] // reuse the ring's storage
		r.head = 0
	}
	return e
}

// schedule enqueues an event at absolute time t (clamped to the present).
func (s *Sim) schedule(t Time, fn func(), p *Proc) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	e := event{t: t, seq: s.seq, fn: fn, proc: p}
	if t == s.now {
		s.nowq.q = append(s.nowq.q, e)
		return
	}
	// Near-deadline events go straight to the heap; far-future ones stage
	// in the wheel at O(1) and spill near their deadline (see syncTier).
	if s.disableWheel || tickOf(t)-tickOf(s.now) < wheelNearTicks {
		s.events.push(e)
		return
	}
	w := s.wheel
	if w == nil {
		w = newTimerWheel(tickOf(s.now))
		s.wheel = w
	} else if w.count == 0 {
		// Catch the horizon up while the wheel is empty so placement
		// levels stay tight; with events held, syncTier owns the horizon.
		w.reset(tickOf(s.now))
	}
	s.stats.WheelHits++
	w.place(e, s.spill)
}

// spill receives events leaving the wheel whose deadline is near (or past)
// the advancing horizon and files them in the heap under their original
// (t, seq) key.
func (s *Sim) spill(e event) {
	e.viaWheel = true
	s.events.push(e)
}

// syncTier makes the heap/ring candidate trustworthy: it advances the wheel
// horizon until every wheel-held event is provably later (by tick) than the
// earliest ring or heap event, spilling anything at or before that tick
// into the heap. The wrapper is leaf-inlinable so an empty wheel costs the
// hot dispatch path one nil/zero check.
func (s *Sim) syncTier() {
	if w := s.wheel; w != nil && w.count != 0 {
		s.syncTierSlow(w)
	}
}

func (s *Sim) syncTierSlow(w *timerWheel) {
	for {
		var cand int64
		switch {
		case s.nowq.len() > 0:
			cand = tickOf(s.now)
		case len(s.events) > 0:
			cand = tickOf(s.events[0].t)
		default:
			cand = w.minLB
		}
		if w.minLB > cand {
			// Every wheel event's tick is at least minLB, hence strictly
			// after the candidate's tick: the candidate dispatches first
			// under the (t, seq) order no matter what the wheel holds.
			// One comparison is the whole cost on the hot path.
			return
		}
		w.advanceTo(cand+1, s.spill)
		if w.count == 0 {
			return
		}
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past is
// clamped to the present.
func (s *Sim) At(t Time, fn func()) { s.schedule(t, fn, nil) }

// After schedules fn to run d from now.
func (s *Sim) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now.Add(d), fn)
}

// resumeAt schedules p to resume at absolute time t.
func (s *Sim) resumeAt(t Time, p *Proc) { s.schedule(t, nil, p) }

// pending reports the number of queued events.
func (s *Sim) pending() int {
	n := len(s.events)
	if s.wheel != nil {
		n += s.wheel.count
	}
	return n + s.nowq.len()
}

// eventHeap is a binary min-heap of events in (t, seq) order, used
// for the sim's near-term event queue and the wheel's overflow tier.
type eventHeap []event

// minHeapCap floors the amortized shrink: backing arrays never drop below
// this, so small sims keep a stable allocation.
const minHeapCap = 64

// push inserts e.
func (hp *eventHeap) push(e event) {
	h := append(*hp, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*hp = h
}

// pop removes and returns the earliest event. When occupancy falls below a
// quarter of the backing array (hysteresis against append's grow-at-full),
// the array is halved so a burst of far timers doesn't pin its peak
// footprint for the rest of the run.
func (hp *eventHeap) pop() event {
	h := *hp
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the fn/proc references
	h = h[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h[l].before(h[least]) {
			least = l
		}
		if r < n && h[r].before(h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	if c := cap(h); c > minHeapCap && n <= c/4 {
		nc := c / 2
		if nc < minHeapCap {
			nc = minHeapCap
		}
		shrunk := make(eventHeap, n, nc)
		copy(shrunk, h)
		h = shrunk
	}
	*hp = h
	return top
}

// popNext removes and returns the earliest queued event.
func (s *Sim) popNext() (event, bool) {
	s.syncTier()
	hok := len(s.events) > 0
	if r := &s.nowq; r.len() > 0 {
		if !hok || !s.events[0].before(r.q[r.head]) {
			e := r.pop()
			s.countPopped(e)
			return e, true
		}
	}
	if hok {
		e := s.events.pop()
		s.countPopped(e)
		return e, true
	}
	return event{}, false
}

// countPopped attributes dispatched wheel-staged events to the scheduler
// tier.
func (s *Sim) countPopped(e event) {
	if e.viaWheel {
		s.stats.HeapSpills++
	}
}

// dispatch executes one event in scheduler context.
func (s *Sim) dispatch(ev event) {
	if ev.proc != nil {
		s.runProc(ev.proc)
	} else {
		ev.fn()
	}
}

// clearEvents drops every queued event.
func (s *Sim) clearEvents() {
	for i := range s.events {
		s.events[i] = event{}
	}
	s.events = s.events[:0]
	clear(s.nowq.q)
	s.nowq = nowRing{q: s.nowq.q[:0]}
	if s.wheel != nil {
		s.wheel.clear(tickOf(s.now))
	}
}

// Proc is an emulated thread of control: a coroutine that runs only when the
// scheduler switches into it. All blocking operations (Sleep, queue and
// resource operations, condition waits) must be called with the Proc that is
// currently running.
type Proc struct {
	sim  *Sim
	name string
	// next switches from the scheduler into the proc and returns when the
	// proc parks or its coroutine ends; yield is the switch back. A panic in
	// the proc is recovered inside it and fails the run (see Proc.run).
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	killed bool
	// fn is the body of the current incarnation, held on the Proc instead
	// of closed over so a recycled shell restarts without allocating. It is
	// nil while the shell sits in the pool.
	fn func(p *Proc)
	// blocked describes what the proc is waiting on, for deadlock reports.
	blocked string
	// track is this proc's trace timeline; zero when the sim is untraced.
	track trace.Track
}

// Name reports the name the proc was spawned with.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulator this proc belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

type killedSentinel struct{ name string }

// unwind ends the calling proc through its deferred calls (killed or Fail).
func (p *Proc) unwind() { panic(killedSentinel{p.name}) }

// Fail ends the run with err, unless an earlier failure did, and unwinds the
// calling proc through its deferred calls; then Run kills every other proc
// and returns the first failure. Like testing.T.FailNow, it does not return.
// It must be called by the running proc; a nil err still fails the run.
func (p *Proc) Fail(err error) {
	if err == nil {
		err = errors.New("sim: proc " + p.name + " failed with a nil error")
	}
	if p.sim.err == nil {
		p.sim.err = err
	}
	p.unwind()
}

// ProcPanicError is the failure Run returns when a proc body panics.
type ProcPanicError struct {
	Proc  string // the panicking proc's name
	Value any    // the value passed to panic
	Stack []byte // the proc's stack at the panic (debug.Stack)
}

func (e *ProcPanicError) Error() string {
	return fmt.Sprintf("sim: proc %s panicked: %v", e.Proc, e.Value)
}

// Unwrap returns Value when it is an error, for errors.Is and errors.As.
func (e *ProcPanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// maxFreeProcs caps the recycling pool so a one-off burst of concurrency
// doesn't pin its peak goroutine count forever.
const maxFreeProcs = 4096

// Spawn starts a new proc running fn. The proc is scheduled to begin at the
// current virtual time, after every event already queued for that instant.
// Spawn may be called before Run or from a running proc or event callback.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	// Reuse a pooled shell (and its suspended coroutine) when one is free.
	// Profiled sims never reach here (the pool stays empty; see Proc.run).
	if n := len(s.freeProcs); n > 0 {
		p = s.freeProcs[n-1]
		s.freeProcs[n-1] = nil
		s.freeProcs = s.freeProcs[:n-1]
		p.name = name
		p.killed = false
		p.blocked = ""
		p.track = 0
		p.fn = fn
		s.stats.ProcReuses++
	} else {
		p = &Proc{sim: s, name: name, fn: fn}
		p.next, _ = iter.Pull(p.main)
	}
	if t := s.tracer; t != nil {
		p.track = t.NewTrack("procs", name)
		t.Instant(p.track, int64(s.now), "spawn", "proc")
	}
	s.procs[p] = true
	s.resumeAt(s.now, p)
	return p
}

// main is the body of every proc coroutine: it runs incarnations of p until
// one ends without pooling the shell (kill, Fail, panic, pool cap), or until
// drainPool resumes a pooled shell without giving it a body.
func (p *Proc) main(yield func(struct{}) bool) {
	p.yield = yield
	for p.run() {
		yield(struct{}{}) // pooled: suspended until the next spawn or a drain
		if p.fn == nil {
			return
		}
	}
}

// run executes one incarnation and reports whether the shell was pooled for
// reuse. Only a normal return pools: a proc that is running holds no queued
// resumption (wakeups are consumed before it runs, and nothing can target a
// running proc), so on clean exit no stale event can reference the recycled
// pointer. A killed proc's pending wakeup may still sit in the queue, so its
// shell is never reused, nor a failed one. A proc that failed the run (Fail
// or a panic, not a kill) empties the event queue after its deferred calls,
// so Run's loop ends before anything else dispatches. Profiled sims never
// pool either: the critical-path profiler keys per-proc state by *Proc and
// must see a fresh pointer per logical proc.
func (p *Proc) run() (pooled bool) {
	s := p.sim
	defer func() {
		delete(s.procs, p)
		r := recover()
		if r == nil {
			s.tracer.Instant(p.track, int64(s.now), "exit", "proc")
			if s.profiler == nil && len(s.freeProcs) < maxFreeProcs {
				p.fn = nil
				s.freeProcs = append(s.freeProcs, p)
				pooled = true
			}
			return
		}
		if _, ok := r.(killedSentinel); !ok && s.err == nil {
			s.err = &ProcPanicError{Proc: p.name, Value: r, Stack: debug.Stack()}
		}
		if p.killed {
			s.tracer.Instant(p.track, int64(s.now), "killed", "proc")
			return
		}
		s.tracer.Instant(p.track, int64(s.now), "failed", "proc")
		s.clearEvents()
	}()
	if p.killed {
		p.unwind()
	}
	p.fn(p)
	return
}

// drainPool ends the coroutines suspended on the free list. Run, Shutdown,
// and killProcs drain so a finished or abandoned Sim leaks no goroutines.
func (s *Sim) drainPool() {
	for i, p := range s.freeProcs {
		p.next() // fn is nil: main returns
		s.freeProcs[i] = nil
	}
	s.freeProcs = s.freeProcs[:0]
}

// runProc switches into p and returns when it parks or exits. Must be called
// from scheduler context (inside an event callback). p is live: an exited
// proc has no queued resumption (Fail and killProcs empty the queue, and a
// pooled shell holds none), so no event reaches it.
func (s *Sim) runProc(p *Proc) {
	p.blocked = ""
	p.next()
}

// park suspends the calling proc until the scheduler resumes it. The caller
// must have arranged for a wakeup (a scheduled event or a cond signal).
func (p *Proc) park(why string) { p.parkCharged(why, 0, "") }

// parkCharged parks p like park and, once it resumes, charges the time it
// spent parked as kind on res; an empty res charges nothing. It is park's one
// body (park inlines to it): each call frame below a coroutine switch costs a
// mispredicted return on every resume.
func (p *Proc) parkCharged(why string, kind ChargeKind, res string) {
	s := p.sim
	from := s.now
	t := s.tracer
	if t != nil {
		t.Begin(p.track, int64(from), why, "park")
	}
	p.blocked = why
	p.yield(struct{}{})
	if t != nil {
		t.End(p.track, int64(s.now))
	}
	if p.killed {
		p.unwind()
	}
	if res != "" {
		s.charge(p, kind, res, from, s.now)
	}
}

// TraceBegin opens a span on the proc's trace track; close it with TraceEnd.
// All trace methods no-op when the sim is untraced; the sink copies args, so
// the caller's variadic slice stays on its stack either way.
func (p *Proc) TraceBegin(name, cat string, args ...trace.Arg) {
	if t := p.sim.tracer; t != nil {
		t.Begin(p.track, int64(p.sim.now), name, cat, args...)
	}
}

// TraceEnd closes the innermost span opened with TraceBegin.
func (p *Proc) TraceEnd(args ...trace.Arg) {
	if t := p.sim.tracer; t != nil {
		t.End(p.track, int64(p.sim.now), args...)
	}
}

// Sleep suspends the proc for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	s := p.sim
	s.resumeAt(s.now.Add(d), p)
	p.park("sleep")
}

// DeadlockError reports that Run exhausted all events while procs were still
// blocked: in the emulated system those threads would wait forever.
type DeadlockError struct {
	// Blocked lists the stuck procs as "name (reason)".
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock: %d procs blocked forever: %s",
		len(e.Blocked), strings.Join(e.Blocked, ", "))
}

// Run executes events in virtual-time order until none remain or a proc
// fails the run (Fail, or a panic as a *ProcPanicError): then Run kills every
// proc and returns the first failure. Otherwise, if procs are still blocked
// when the queue drains, Run force-terminates every proc and returns a
// DeadlockError naming the blocked ones. On success every spawned proc has
// finished.
func (s *Sim) Run() error {
	for {
		ev, ok := s.popNext()
		if !ok {
			break
		}
		s.now = ev.t
		s.dispatch(ev)
	}
	if err := s.err; err != nil {
		s.killProcs()
		s.err = nil
		return err
	}
	var names []string
	for p := range s.procs {
		names = append(names, fmt.Sprintf("%s (%s)", p.name, p.blocked))
	}
	if len(names) > 0 {
		sort.Strings(names)
		s.killProcs()
		return &DeadlockError{Blocked: names}
	}
	// End the recycling pool's coroutines: a Sim dropped after Run must not
	// leak their goroutines.
	s.drainPool()
	return nil
}

// Shutdown force-terminates all live procs (each unwinds via an internal
// panic its own coroutine recovers). It is safe to call after Run; it must
// not be called from proc context.
func (s *Sim) Shutdown() {
	s.killProcs()
}

func (s *Sim) killProcs() {
	var killed []*Proc
	for len(s.procs) > 0 {
		for p := range s.procs {
			p.killed = true
			killed = append(killed, p)
			p.next()
			break // map may have changed; restart iteration
		}
	}
	// Drop any queued events so a subsequent Run returns immediately.
	s.clearEvents()
	// Killed procs may still be queued on resource or cond wait lists;
	// purge those dangling pointers so the sim's resources stay usable
	// (and inspectable) after a shutdown.
	for _, p := range killed {
		for _, wl := range s.waitLists {
			wl.purge(p)
		}
	}
	s.drainPool()
}
