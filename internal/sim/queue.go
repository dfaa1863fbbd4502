package sim

import (
	"errors"

	"lmas/internal/trace"
)

// ErrClosed is returned by Queue.Put on a closed queue.
var ErrClosed = errors.New("sim: put on closed queue")

// Queue is a bounded FIFO connecting procs, the simulated analogue of a
// buffered Go channel. Queues carry records between functor instances; the
// bound models the limited buffer memory of the node hosting the consumer
// and provides backpressure, which is what lets a saturated stage slow its
// producers (the load-balance effect the paper's emulation studies).
type Queue[T any] struct {
	sim      *Sim
	name     string
	buf      []T
	head     int // index of first element in buf (ring)
	n        int // number of elements
	closed   bool
	notEmpty *Cond
	notFull  *Cond

	// enqT mirrors buf with each element's enqueue instant, so take can
	// accumulate the time elements spend buffered.
	enqT []Time
	// cumWait is the total buffered time summed over all dequeued elements;
	// lastWait is the most recently dequeued element's share of it.
	cumWait, lastWait Duration
	// highWater is the maximum depth the queue ever reached.
	highWater int

	track trace.Track // cached trace timeline for depth counters
}

// NewQueue creates a queue holding at most capacity elements.
// Capacity must be at least 1.
func NewQueue[T any](s *Sim, name string, capacity int) *Queue[T] {
	if capacity < 1 {
		panic("sim: queue capacity must be >= 1")
	}
	return &Queue[T]{
		sim:      s,
		name:     name,
		buf:      make([]T, capacity),
		enqT:     make([]Time, capacity),
		notEmpty: NewCond(s, name+" not-empty"),
		notFull:  NewCond(s, name+" not-full"),
	}
}

// traceDepth samples the queue depth onto the trace, so viewers render
// buffer occupancy (and hence backpressure) as a stepped time series.
func (q *Queue[T]) traceDepth() {
	t := q.sim.tracer
	if t == nil {
		return
	}
	if q.track == 0 {
		q.track = t.SharedTrack("queues", q.name)
	}
	t.Counter(q.track, int64(q.sim.now), "depth", int64(q.n))
}

// Len reports the number of buffered elements.
func (q *Queue[T]) Len() int { return q.n }

// Name reports the queue's name.
func (q *Queue[T]) Name() string { return q.name }

// Put appends v, blocking p while the queue is full.
// It returns ErrClosed if the queue is or becomes closed.
func (q *Queue[T]) Put(p *Proc, v T) error {
	for q.n == len(q.buf) && !q.closed {
		q.notFull.Wait(p)
	}
	if q.closed {
		return ErrClosed
	}
	slot := (q.head + q.n) % len(q.buf)
	q.buf[slot] = v
	q.enqT[slot] = q.sim.now
	q.n++
	if q.n > q.highWater {
		q.highWater = q.n
	}
	q.traceDepth()
	q.notEmpty.Signal()
	return nil
}

// GetN is the drain fast path: it removes up to len(dst) buffered elements
// into dst, blocking p only while the queue is empty (like a single Get).
// It never blocks to fill dst — whatever is buffered when the queue becomes
// non-empty is taken, up to len(dst). Returns the number of elements taken,
// with ok=false when the queue is closed and drained. Wait accounting is
// unchanged: each element is dequeued through the same path as Get.
func (q *Queue[T]) GetN(p *Proc, dst []T) (n int, ok bool) {
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait(p)
	}
	if q.n == 0 {
		return 0, false
	}
	k := q.n
	if k > len(dst) {
		k = len(dst)
	}
	for i := 0; i < k; i++ {
		dst[i] = q.take()
	}
	return k, true
}

// Get removes and returns the oldest element, blocking p while the queue is
// empty. ok is false if the queue is closed and drained.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait(p)
	}
	if q.n == 0 {
		return v, false
	}
	return q.take(), true
}

func (q *Queue[T]) take() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.lastWait = Duration(q.sim.now - q.enqT[q.head])
	q.cumWait += q.lastWait
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.traceDepth()
	q.notFull.Signal()
	return v
}

// LastWait reports how long the most recently dequeued element sat buffered:
// zero when it was handed to a consumer already waiting at the instant it was
// put. A consumer reads it right after its Get returns.
func (q *Queue[T]) LastWait() Duration { return q.lastWait }

// WaitStats reports the cumulative time elements have spent buffered and the
// maximum depth the queue ever reached. Elements still enqueued contribute
// the wait they have accrued so far: take() only accounts dequeued elements,
// so without the residual term a run shut down (or killed) with packets
// still buffered under-reports queue wait and breaks critical-path
// conservation. Drained queues are unaffected (the residual is zero).
func (q *Queue[T]) WaitStats() (cumWait Duration, highWater int) {
	cumWait = q.cumWait
	for i := 0; i < q.n; i++ {
		cumWait += Duration(q.sim.now - q.enqT[(q.head+i)%len(q.buf)])
	}
	return cumWait, q.highWater
}

// Close marks the queue closed: pending and future Puts fail with ErrClosed,
// and Gets drain the buffer then report ok=false. Close is idempotent.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}
