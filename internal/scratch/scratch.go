// Package scratch provides process-wide free lists for the transient
// scratch memory the emulation host burns through on every simulated run:
// sort scratch in records, run-decode buffers in pqueue, and merge
// frontiers in dsmsort. Pooling this memory is a pure wall-clock
// optimisation — it never touches virtual time — and it stays safe under
// the parallel experiment sweeps (`-j`), whose cells share these pools
// across worker goroutines: every Get and Put takes the pool's lock, and
// every borrower returns only memory it owns exclusively.
//
// The cardinal rule: never Put memory that anything else may still
// reference. Buffers that escape into containers, packets, or bte engines
// are owned by those structures and must not be pooled.
package scratch

import "sync"

// poolCap bounds the free list so a burst of returns cannot pin unbounded
// memory; overflow is dropped to the GC.
const poolCap = 512

// Pool is a typed free list of *T. Pooling pointers (rather than slice or
// struct values) keeps Get/Put allocation-free in steady state. The zero
// value is ready to use; all methods are safe for concurrent use.
type Pool[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get returns a pooled *T, or a new zero T if the pool is empty.
func (p *Pool[T]) Get() *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return new(T)
	}
	v := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return v
}

// Put returns v to the pool; v must not be used afterwards. Callers are
// responsible for not retaining references out of *v that would pin large
// memory (truncate, don't nil, slices you intend to reuse). When the pool
// is full, v is dropped to the GC.
func (p *Pool[T]) Put(v *T) {
	if v == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < poolCap {
		p.free = append(p.free, v)
	}
}

// Pooled reports how many items are currently parked. Test hook.
func (p *Pool[T]) Pooled() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// Grow returns sl resized to length n, reallocating only when the backing
// array is too small. Contents are unspecified. It is the standard helper
// for growing pooled scratch slices in place.
func Grow[T any](sl []T, n int) []T {
	if cap(sl) >= n {
		return sl[:n]
	}
	return make([]T, n)
}
