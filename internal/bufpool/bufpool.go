// Package bufpool is the ownership-tracked, size-class allocator for record
// buffers. The emulator streams fixed-size record packets through functors
// and containers; without pooling, every packet's bytes are allocated and
// GC'd several times per hop on the emulation host. This pool gives that
// memory the buffer-recycling discipline TPIE's memory manager imposes on
// external-memory streams: buffers are drawn from per-size-class free lists
// and returned when their owner releases them. Each free list holds at most
// perClassCapBytes bytes of idle storage, whatever the class's buffer size.
//
// Ownership rules (the contract every layer above follows):
//
//   - Get hands the caller EXCLUSIVE ownership of the returned buffer.
//   - Put requires exclusive ownership: nothing else may reference any part
//     of the buffer's backing array. Putting aliased memory corrupts later
//     borrowers.
//   - Ownership moves with the data: into a container.Packet (Packet.Owned),
//     into a bte.Engine block (Engine.Append), back out via destructive
//     scans (Engine.Detach), and home again via Engine.Free or
//     Packet.Release.
//
// Pooling is a pure wall-clock optimisation: all simulated costs are
// analytic functions of buffer LENGTHS, which pooling never changes, so
// virtual time is byte-identical with the pool in or out of the loop.
//
// Debug mode (enabled by tests via SetDebug) enforces the contract: released
// buffers are poisoned, double-releases and writes-after-release panic, and
// LeakCheck asserts every buffer drawn was returned.
package bufpool

import (
	"fmt"
	"math/bits"
	"sync"
)

const (
	minShift = 6  // smallest class: 64 B
	maxShift = 24 // largest class: 16 MiB
	classes  = maxShift - minShift + 1

	// perClassCapBytes bounds each free list, in BYTES of pooled storage
	// (not buffers), so a burst of releases cannot pin unbounded memory;
	// overflow is dropped to the GC. Every class gets the same budget — half
	// a million 64-B buffers, two 16-MiB ones — sized so that a bench cell's
	// input and output (16 MiB each at 2^17 records, all in one class) both
	// fit when the harness hands them back.
	perClassCapBytes = 32 << 20

	// Poison fills released buffers in debug mode. 0xDB ("dead buffer")
	// makes use-after-release failures loud: record keys and checksums
	// computed from a released buffer are visibly garbage.
	Poison = 0xDB
)

// Pool is a size-class free-list allocator. The zero value is ready to use;
// all methods are safe for concurrent use (the parallel experiment sweeps
// share one pool across worker goroutines).
type Pool struct {
	mu   sync.Mutex
	free [classes][][]byte

	gets, reuses, puts, drops uint64
	class                     [classes]classCounters

	debug       bool
	outstanding map[*byte]int // live Get buffers: base pointer -> class
	pooled      map[*byte]bool
}

// classCounters is one size class's lifetime accounting.
type classCounters struct {
	gets, hits uint64
	inUse      int64 // gets minus puts; floored at zero (foreign buffers)
	highWater  int64
}

// classFor returns the class index whose size is the smallest power of two
// >= n, or -1 when n exceeds the largest class.
func classFor(n int) int {
	if n <= 1<<minShift {
		return 0
	}
	if n > 1<<maxShift {
		return -1
	}
	return bits.Len(uint(n-1)) - minShift
}

// classSize reports the byte size of class c.
func classSize(c int) int { return 1 << (c + minShift) }

// base returns the identifying pointer of b's backing array.
func base(b []byte) *byte { return &b[:cap(b)][0] }

// Get returns a buffer of length n with exclusive ownership. Contents are
// UNSPECIFIED (callers overwrite before reading); capacity is the class
// size. Requests larger than the biggest class fall back to the GC and are
// dropped again on Put.
func (p *Pool) Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	p.mu.Lock()
	p.gets++
	cc := &p.class[c]
	cc.gets++
	cc.inUse++
	if cc.inUse > cc.highWater {
		cc.highWater = cc.inUse
	}
	var b []byte
	if fl := p.free[c]; len(fl) > 0 {
		b = fl[len(fl)-1]
		fl[len(fl)-1] = nil
		p.free[c] = fl[:len(fl)-1]
		p.reuses++
		cc.hits++
	}
	if p.debug {
		if b != nil {
			delete(p.pooled, base(b))
			for i := range b[:cap(b)] {
				if b[:cap(b)][i] != Poison {
					p.mu.Unlock()
					panic(fmt.Sprintf("bufpool: pooled %d-byte buffer modified after release (byte %d)", cap(b), i))
				}
			}
		}
	}
	if b == nil {
		b = make([]byte, classSize(c))
	}
	if p.debug {
		p.outstanding[base(b)] = c
	}
	p.mu.Unlock()
	return b[:n]
}

// Put returns a buffer to its class free list. The caller must own b
// exclusively and not touch it afterwards. Buffers whose capacity is not an
// exact class size (sub-slices, foreign allocations, oversize requests) are
// released to the GC instead; either way the buffer counts as returned.
func (p *Pool) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	cs := cap(b)
	poolable := cs&(cs-1) == 0 && cs >= 1<<minShift && cs <= 1<<maxShift
	p.mu.Lock()
	defer p.mu.Unlock()
	p.puts++
	if poolable {
		if cc := &p.class[classFor(cs)]; cc.inUse > 0 {
			cc.inUse--
		}
	}
	if p.debug {
		bp := base(b)
		if p.pooled[bp] {
			panic(fmt.Sprintf("bufpool: double release of %d-byte buffer", cs))
		}
		delete(p.outstanding, bp)
		if poolable {
			full := b[:cs]
			for i := range full {
				full[i] = Poison
			}
			p.pooled[bp] = true
		}
	}
	if !poolable {
		p.drops++
		return
	}
	c := classFor(cs)
	if len(p.free[c]) >= perClassCapBytes/cs {
		p.drops++
		if p.debug {
			delete(p.pooled, base(b))
		}
		return
	}
	p.free[c] = append(p.free[c], b[:cs])
}

// SetDebug switches contract enforcement on or off, returning the previous
// setting. Toggling drops all pooled buffers and resets tracking, so debug
// invariants always hold for the buffers the pool currently knows about.
func (p *Pool) SetDebug(on bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	prev := p.debug
	p.debug = on
	for c := range p.free {
		p.free[c] = nil
	}
	if on {
		p.outstanding = make(map[*byte]int)
		p.pooled = make(map[*byte]bool)
	} else {
		p.outstanding, p.pooled = nil, nil
	}
	return prev
}

// Outstanding reports how many tracked buffers have been drawn but not
// returned. Zero when debug mode is off.
func (p *Pool) Outstanding() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.outstanding)
}

// LeakCheck returns an error naming the number of unreturned buffers, or
// nil when every tracked buffer came home. Only meaningful in debug mode.
func (p *Pool) LeakCheck() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.outstanding); n > 0 {
		var bytes int
		for _, c := range p.outstanding {
			bytes += classSize(c)
		}
		return fmt.Errorf("bufpool: %d buffers (%d pooled bytes) never released", n, bytes)
	}
	return nil
}

// Stats reports lifetime counters: buffers drawn, draws served from a free
// list, buffers returned, and returns dropped to the GC.
func (p *Pool) Stats() (gets, reuses, puts, drops uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.reuses, p.puts, p.drops
}

// ClassStats is one size class's pool-health snapshot.
type ClassStats struct {
	Size      int    // class buffer size in bytes
	Gets      uint64 // buffers drawn from this class
	Hits      uint64 // draws served from the free list
	InUse     int64  // buffers currently drawn and not returned
	HighWater int64  // peak simultaneous in-use count
}

// ClassStatsSnapshot reports per-size-class counters for every class that has
// seen at least one Get, smallest class first.
func (p *Pool) ClassStatsSnapshot() []ClassStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []ClassStats
	for c := range p.class {
		cc := p.class[c]
		if cc.gets == 0 {
			continue
		}
		out = append(out, ClassStats{
			Size:      classSize(c),
			Gets:      cc.gets,
			Hits:      cc.hits,
			InUse:     cc.inUse,
			HighWater: cc.highWater,
		})
	}
	return out
}

// Default is the process-wide pool the record/container/engine layers share.
var Default Pool

// Get draws from the default pool.
func Get(n int) []byte { return Default.Get(n) }

// Put returns to the default pool.
func Put(b []byte) { Default.Put(b) }

// SetDebug toggles the default pool's debug mode.
func SetDebug(on bool) bool { return Default.SetDebug(on) }

// LeakCheck checks the default pool.
func LeakCheck() error { return Default.LeakCheck() }

// Outstanding reports the default pool's unreturned tracked buffers.
func Outstanding() int { return Default.Outstanding() }

// ClassStatsSnapshot reports the default pool's per-class counters.
func ClassStatsSnapshot() []ClassStats { return Default.ClassStatsSnapshot() }
