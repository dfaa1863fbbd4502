package sim

import (
	"fmt"
	"iter"
	"math/bits"
	"sort"
	"strings"

	"lmas/internal/trace"
)

// event is a scheduled callback or proc resumption. Events with equal times
// fire in (partition, per-partition seq) order: within a partition, schedule
// order; across partitions, ascending partition rank. A partition's seq
// numbering depends only on that partition's schedule history, not on how
// unrelated partitions' events interleaved. An event resumes proc when proc
// is non-nil and calls fn otherwise; tagging resumptions with the proc
// (instead of closing over it) keeps the hot scheduling paths allocation-free.
type event struct {
	t    Time
	part int32
	// viaWheel marks an event that was staged in the timer wheel before
	// spilling into the heap; countPopped uses it to attribute dispatched
	// events to the scheduler tier (packs into part's padding, costs no
	// space).
	viaWheel bool
	seq      uint64
	fn       func()
	proc     *Proc
}

// before reports whether e fires ahead of f in (time, partition, seq) order.
func (e event) before(f event) bool {
	if e.t != f.t {
		return e.t < f.t
	}
	if e.part != f.part {
		return e.part < f.part
	}
	return e.seq < f.seq
}

// Sim is a discrete-event simulator. The zero value is not usable; create
// one with New. The goroutine that calls Run, RunFor, Kill or Shutdown is
// the scheduler and the only dispatcher: it pops events in (time, partition,
// seq) order and runs each callback or proc resumption to completion before
// the next. Procs are runtime coroutines (iter.Pull) that the scheduler
// switches into and that switch back when they park, so exactly one flow of
// control touches the Sim at any moment and no locking is needed.
type Sim struct {
	now Time
	// events is a hand-rolled binary min-heap ordered by (t, part, seq).
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
	// nowqs holds events scheduled for the current instant, one FIFO ring
	// per partition, consumed before the heap advances time. Scheduling
	// "at now" is the dominant case (proc wakeups from conds, resources,
	// and spawns), and the rings make it O(1) instead of an O(log n) heap
	// round trip. Invariant: every queued entry has t == now (the rings
	// drain before time advances), so within a ring FIFO order is exactly
	// (t, part, seq) order, and the globally next entry is the head of the
	// lowest-numbered non-empty ring. nowActive is a bitmap of non-empty
	// rings (bit i of word i/64) so finding that ring is one
	// find-first-set in the common single-word case.
	nowqs     []nowRing
	nowActive []uint64
	// seqs holds one tie-break counter per partition.
	seqs []uint64
	// curPart is the partition of the currently dispatching event; fn
	// events and spawns scheduled from inside it inherit this partition.
	curPart int32

	procs  map[*Proc]bool // all live procs
	inProc bool           // true while a proc has control

	// tracer, when non-nil, receives structured events from the kernel and
	// from device models built on it. Untraced runs pay one nil check.
	tracer *trace.Sink

	// profiler, when non-nil, receives latency-attribution charges from
	// the kernel and device models. Unprofiled runs pay one nil check.
	profiler Profiler

	// waitLists holds every wait-list owner (resources, conds) created on
	// this sim, so killProcs can purge killed procs from their queues.
	waitLists []purger

	// liveEvents counts queued events other than daemon-proc resumptions.
	// Run exits when it reaches zero, leaving daemon wakeups queued: a
	// periodic observer (see SpawnDaemon) therefore never extends a run's
	// virtual end time, and a later Run resumes it alongside new work.
	liveEvents int

	// freeProcs is the pool of exited proc shells whose coroutines are
	// suspended awaiting reuse; see Proc.run. Daemons and profiled sims never
	// pool (daemon spawns must not perturb pool state across recorded and
	// unrecorded runs, and the critpath profiler keys state by *Proc).
	freeProcs []*Proc

	// stats counts scheduler-tier activity for non-daemon events only, so
	// the numbers are identical with or without a recorder attached (daemon
	// samplers never contribute).
	stats SchedStats
}

// SchedStats reports scheduler-tier activity: how many far-future events
// the timer wheel absorbed, how many of those were spilled into the heap
// and dispatched, and how many proc spawns reused a pooled shell. Daemon
// events are excluded throughout, keeping every count a pure function of
// the non-daemon schedule (byte-identical with or without recording).
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

// Tracer returns the attached trace sink, or nil. Device models layered on
// the sim (disk, netsim) record their transfers through it.
func (s *Sim) Tracer() *trace.Sink { return s.tracer }

// New creates an empty simulation at time zero.
func New() *Sim {
	return &Sim{
		procs: make(map[*Proc]bool),
		// Partition 0 (the global/unpinned partition) always exists.
		seqs:      make([]uint64, 1),
		nowqs:     make([]nowRing, 1),
		nowActive: make([]uint64, 1),
	}
}

// Now reports the current virtual time.
func (s *Sim) Now() Time { return s.now }

// nowRing is one partition's FIFO ring of current-instant events.
type nowRing struct {
	q    []event
	head int
}

// schedule enqueues an event at absolute time t (clamped to the present).
// Proc resumptions are keyed by the proc's partition; fn callbacks by the
// scheduling context's.
func (s *Sim) schedule(t Time, fn func(), p *Proc) {
	if t < s.now {
		t = s.now
	}
	part := s.curPart
	if p != nil {
		part = p.part
	}
	s.seqs[part]++
	if p == nil || !p.daemon {
		s.liveEvents++
	}
	e := event{t: t, part: part, seq: s.seqs[part], fn: fn, proc: p}
	if t == s.now {
		r := &s.nowqs[part]
		r.q = append(r.q, e)
		s.nowActive[part>>6] |= 1 << (uint(part) & 63)
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
	if p == nil || !p.daemon {
		s.stats.WheelHits++
	}
	w.place(e, s.spill)
}

// spill receives events leaving the wheel whose deadline is near (or past)
// the advancing horizon and files them in the heap under their original
// (t, part, seq) key.
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
		case s.lowestActive() >= 0:
			cand = tickOf(s.now)
		case len(s.events) > 0:
			cand = tickOf(s.events[0].t)
		default:
			cand = w.minLB
		}
		if w.minLB > cand {
			// Every wheel event's tick is at least minLB, hence strictly
			// after the candidate's tick: the candidate dispatches first
			// under the (t, part, seq) order no matter what the wheel
			// holds. One comparison is the whole cost on the hot path.
			return
		}
		w.advanceTo(cand+1, s.spill)
		if w.count == 0 {
			return
		}
	}
}

// lowestActive returns the lowest-numbered partition with a non-empty
// current-instant ring, or -1.
func (s *Sim) lowestActive() int32 {
	for wi, w := range s.nowActive {
		if w != 0 {
			return int32(wi)<<6 + int32(bits.TrailingZeros64(w))
		}
	}
	return -1
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
	for i := range s.nowqs {
		n += len(s.nowqs[i].q) - s.nowqs[i].head
	}
	return n
}

// eventHeap is a binary min-heap of events in (t, part, seq) order, used
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

// peekNext reports the earliest queued event without removing it. The
// current-instant candidate is the head of the lowest active ring: every
// ring entry shares t == now, so the ascending-partition scan plus each
// ring's FIFO order is exactly (t, part, seq) order.
func (s *Sim) peekNext() (event, bool) {
	s.syncTier()
	part := s.lowestActive()
	hok := len(s.events) > 0
	if part >= 0 {
		r := &s.nowqs[part]
		if hok && s.events[0].before(r.q[r.head]) {
			return s.events[0], true
		}
		return r.q[r.head], true
	}
	if hok {
		return s.events[0], true
	}
	return event{}, false
}

// popNext removes and returns the earliest queued event.
func (s *Sim) popNext() (event, bool) {
	s.syncTier()
	part := s.lowestActive()
	hok := len(s.events) > 0
	if part >= 0 {
		r := &s.nowqs[part]
		if !hok || !s.events[0].before(r.q[r.head]) {
			e := r.q[r.head]
			r.q[r.head] = event{}
			r.head++
			if r.head == len(r.q) {
				r.q = r.q[:0] // reuse the ring's storage
				r.head = 0
				s.nowActive[part>>6] &^= 1 << (uint(part) & 63)
			}
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

// countPopped keeps the live-event counter in step with popNext and
// attributes dispatched wheel-staged events to the scheduler tier.
func (s *Sim) countPopped(e event) {
	if e.proc == nil || !e.proc.daemon {
		s.liveEvents--
		if e.viaWheel {
			s.stats.HeapSpills++
		}
	}
}

// dispatch executes one event in scheduler context. The event's partition
// becomes the scheduling context for everything it runs.
func (s *Sim) dispatch(ev event) {
	s.curPart = ev.part
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
	for p := range s.nowqs {
		r := &s.nowqs[p]
		for i := r.head; i < len(r.q); i++ {
			r.q[i] = event{}
		}
		r.q = r.q[:0]
		r.head = 0
	}
	for i := range s.nowActive {
		s.nowActive[i] = 0
	}
	if s.wheel != nil {
		s.wheel.clear(tickOf(s.now))
	}
	s.liveEvents = 0
}

// Proc is an emulated thread of control: a coroutine that runs only when the
// scheduler switches into it. All blocking operations (Sleep, queue and
// resource operations, condition waits) must be called with the Proc that is
// currently running.
type Proc struct {
	sim  *Sim
	name string
	part int32 // event-ordering partition (0 = global)
	// next switches from the scheduler into the proc and returns when the
	// proc parks or its coroutine ends; yield is the switch back. A panic in
	// the proc resurfaces from next with its original value.
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	killed bool
	// daemon marks a background observer proc whose queued wakeups never
	// keep Run alive (see SpawnDaemon).
	daemon bool
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

// Spawn starts a new proc running fn. The proc is scheduled to begin at the
// current virtual time and inherits the spawning context's partition
// (partition 0 when spawned from outside the event loop). Spawn may be
// called before Run or from a running proc or event callback.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.spawn(int(s.curPart), name, fn, false)
}

// SpawnOn is Spawn with the proc pinned to an explicit partition (see
// AddPartition); clusters pin each node's procs to that node's partition.
func (s *Sim) SpawnOn(part int, name string, fn func(p *Proc)) *Proc {
	return s.spawn(part, name, fn, false)
}

// AddPartition allocates a new event-ordering partition and returns its id.
// Partitions are the deterministic tie-break domains of the event key
// (time, partition, per-partition seq): clusters allocate one per node and
// pin each node's procs to it with SpawnOn, which makes same-instant
// ordering independent of global scheduling history. Partition 0 is the
// global partition for unpinned work and always exists.
func (s *Sim) AddPartition() int {
	id := len(s.seqs)
	s.seqs = append(s.seqs, 0)
	s.nowqs = append(s.nowqs, nowRing{})
	if id>>6 >= len(s.nowActive) {
		s.nowActive = append(s.nowActive, 0)
	}
	return id
}

// Partition reports the partition p is pinned to (0 = global).
func (p *Proc) Partition() int { return int(p.part) }

// SpawnDaemon starts a background observer proc: its queued wakeups do not
// count toward Run's exit condition, so a daemon that sleeps on a fixed
// interval (a periodic sampler) never extends a run's virtual end time — Run
// returns the instant the last non-daemon event is dispatched, leaving the
// daemon parked with its next wakeup queued. A later Run on the same sim
// resumes it. Daemons must only Sleep between observations (never block on
// queues, conds, or resources, which would deadlock them once real work
// drains), and they survive Run; terminate one with Kill or Shutdown.
func (s *Sim) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return s.spawn(int(s.curPart), name, fn, true)
}

// maxFreeProcs caps the recycling pool so a one-off burst of concurrency
// doesn't pin its peak goroutine count forever.
const maxFreeProcs = 4096

func (s *Sim) spawn(part int, name string, fn func(p *Proc), daemon bool) *Proc {
	if part < 0 || part >= len(s.seqs) {
		panic(fmt.Sprintf("sim: SpawnOn partition %d of %d", part, len(s.seqs)))
	}
	var p *Proc
	// Reuse a pooled shell (and its suspended coroutine) when one is free.
	// Daemon spawns always allocate: a recorder's samplers must not
	// perturb the pool state the workload's own spawns observe, or
	// recorded and unrecorded runs would diverge in SchedStats. Profiled
	// sims never reach here (the pool stays empty; see Proc.run).
	if n := len(s.freeProcs); n > 0 && !daemon {
		p = s.freeProcs[n-1]
		s.freeProcs[n-1] = nil
		s.freeProcs = s.freeProcs[:n-1]
		p.name = name
		p.part = int32(part)
		p.killed = false
		p.blocked = ""
		p.track = 0
		p.fn = fn
		s.stats.ProcReuses++
	} else {
		p = &Proc{sim: s, name: name, part: int32(part), daemon: daemon, fn: fn}
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
// one ends without pooling the shell (kill, panic, pool cap), or until
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
// shell is never reused, and a panicking proc's coroutine is over — the
// panic leaves through next and reaches the caller of Run. Profiled sims
// never pool either: the critical-path profiler keys per-proc state by *Proc
// and must see a fresh pointer per logical proc.
func (p *Proc) run() (pooled bool) {
	s := p.sim
	defer func() {
		delete(s.procs, p)
		switch r := recover().(type) {
		case nil:
			s.tracer.Instant(p.track, int64(s.now), "exit", "proc")
			if !p.daemon && s.profiler == nil && len(s.freeProcs) < maxFreeProcs {
				p.fn = nil
				s.freeProcs = append(s.freeProcs, p)
				pooled = true
			}
		case killedSentinel:
			s.tracer.Instant(p.track, int64(s.now), "killed", "proc")
		default:
			s.inProc = false // runProc's reset is skipped by the unwinding
			panic(r)
		}
	}()
	if p.killed {
		panic(killedSentinel{p.name})
	}
	p.fn(p)
	return
}

// drainPool ends the coroutines suspended on the free list. Run, Shutdown,
// and killProcs drain so a finished or abandoned Sim leaks no goroutines;
// RunFor keeps the pool warm across adaptive windows.
func (s *Sim) drainPool() {
	for i, p := range s.freeProcs {
		p.next() // fn is nil: main returns
		s.freeProcs[i] = nil
	}
	s.freeProcs = s.freeProcs[:0]
}

// runProc switches into p and returns when it parks or exits. Must be called
// from scheduler context (inside an event callback).
func (s *Sim) runProc(p *Proc) {
	if !s.procs[p] {
		return // proc already exited (e.g. killed)
	}
	p.blocked = ""
	s.inProc = true
	p.next()
	s.inProc = false
}

// park suspends the calling proc until the scheduler resumes it. The caller
// must have arranged for a wakeup (a scheduled event or a cond signal).
func (p *Proc) park(why string) {
	t := p.sim.tracer
	if t != nil {
		t.Begin(p.track, int64(p.sim.now), why, "park")
	}
	p.blocked = why
	p.yield(struct{}{})
	if t != nil {
		t.End(p.track, int64(p.sim.now))
	}
	if p.killed {
		panic(killedSentinel{p.name})
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

// Run executes events in virtual-time order until no non-daemon events
// remain (daemon wakeups are left queued; see SpawnDaemon). If non-daemon
// procs are still blocked when the queue drains, Run force-terminates every
// proc and returns a DeadlockError naming the blocked ones. On success all
// spawned non-daemon procs have finished; daemons stay parked for a later
// Run, Kill, or Shutdown.
func (s *Sim) Run() error {
	for s.liveEvents > 0 {
		ev, ok := s.popNext()
		if !ok {
			break
		}
		s.now = ev.t
		s.dispatch(ev)
	}
	var names []string
	for p := range s.procs {
		if !p.daemon {
			names = append(names, fmt.Sprintf("%s (%s)", p.name, p.blocked))
		}
	}
	if len(names) > 0 {
		sort.Strings(names)
		s.killProcs()
		return &DeadlockError{Blocked: names}
	}
	// End the recycling pool's coroutines: a Sim dropped after Run must not
	// leak their goroutines. RunFor deliberately keeps the pool warm so
	// churn keeps reusing shells across adaptive windows.
	s.drainPool()
	return nil
}

// RunFor executes events until the event queue drains or virtual time would
// pass the current time plus d, whichever comes first. Remaining procs are
// left parked; call Run to continue or Shutdown to terminate them.
func (s *Sim) RunFor(d Duration) {
	deadline := s.now.Add(d)
	for {
		ev, ok := s.peekNext()
		if !ok || ev.t > deadline {
			break
		}
		s.popNext()
		s.now = ev.t
		s.dispatch(ev)
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Shutdown force-terminates all live procs (each unwinds via an internal
// panic its own coroutine recovers). It is safe to call after Run or
// RunFor; it must not be called from proc context.
func (s *Sim) Shutdown() {
	s.killProcs()
}

// Kill force-terminates a single proc (typically a daemon sampler once its
// run is over) without disturbing the rest of the simulation: other procs,
// queued events, and virtual time are untouched. A stale queued wakeup for
// the killed proc is ignored when dispatched. Must not be called from proc
// context; no-op if p already exited.
func (s *Sim) Kill(p *Proc) {
	if s.inProc {
		panic("sim: Kill from proc context")
	}
	if !s.procs[p] {
		return
	}
	p.killed = true
	p.next()
	for _, wl := range s.waitLists {
		wl.purge(p)
	}
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
