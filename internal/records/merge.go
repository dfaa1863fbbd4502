package records

import (
	"slices"
	"sync"
)

// Refill supplies source src's next sorted buffer once spent, its current
// one, has been read out; spent is the zero Buffer on the source's first
// call. ok false means the source is exhausted. A refill may block (a sim
// proc parks on a queue inside it): the merger calls it synchronously.
type Refill func(src int, spent Buffer) (next Buffer, ok bool)

// Merger is the k-way merge every sort in the tree runs — DSM-Sort's ASU and
// host merges (§4.3), extsort's run merge (§2.1) — over sources that are each
// a sequence of sorted buffers. Draw one with NewMerger, Pop while More, then
// Release it; Merge does all three into one buffer. The refill is passed to
// every call rather than stored, so a caller's closure stays on its stack.
type Merger struct {
	// h is the frontier, one item per live source, heap-ordered by key. It is
	// hand-rolled because container/heap boxes every popped item in an
	// interface — an allocation per exhausted source in the merge pass's
	// hottest loop — but its sifts are container/heap's, so ties break the
	// same way.
	h    []mergeItem
	srcs []cursor
}

// cursor is one source's current buffer and read position.
type cursor struct {
	buf Buffer
	pos int
}

var mergers = sync.Pool{New: func() any { return new(Merger) }}

// NewMerger starts a merge of sources 0..k-1, asking refill for each one's
// first buffer in source order. The merger comes from a pool; Release
// returns it.
func NewMerger(k int, refill Refill) *Merger {
	m := mergers.Get().(*Merger)
	m.srcs = slices.Grow(m.srcs[:0], k)[:k]
	for i := range m.srcs {
		if m.load(i, Buffer{}, refill) {
			m.h = append(m.h, mergeItem{key: m.srcs[i].buf.Key(0), src: i})
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		siftDown(m.h, i)
	}
	return m
}

// More reports whether any source still holds a record.
func (m *Merger) More() bool { return len(m.h) > 0 }

// Pop copies the smallest head record into dst and advances its source,
// calling refill before it returns when that source's buffer runs out.
// Equal keys leave in the order container/heap would pop them.
func (m *Merger) Pop(dst []byte, refill Refill) {
	top := &m.h[0]
	c := &m.srcs[top.src]
	copy(dst, c.buf.Record(c.pos))
	c.pos++
	if c.pos < c.buf.Len() || m.load(top.src, c.buf, refill) {
		top.key = c.buf.Key(c.pos)
	} else {
		n := len(m.h) - 1
		m.h[0] = m.h[n]
		m.h = m.h[:n]
	}
	siftDown(m.h, 0)
}

// load asks refill for source i's next non-empty buffer, handing each empty
// one back as spent; false means the source is exhausted.
func (m *Merger) load(i int, spent Buffer, refill Refill) bool {
	for {
		next, ok := refill(i, spent)
		if !ok {
			m.srcs[i] = cursor{}
			return false
		}
		if next.Len() > 0 {
			m.srcs[i] = cursor{buf: next}
			return true
		}
		spent = next
	}
}

// Merge merges k sources into dst, which must have room for all of their
// records.
func Merge(dst Buffer, k int, refill Refill) {
	m := NewMerger(k, refill)
	for w := 0; m.More(); w++ {
		m.Pop(dst.Record(w), refill)
	}
	m.Release()
}

// Release returns m to the pool, dropping its buffer references so a pooled
// merger never pins one.
func (m *Merger) Release() {
	clear(m.srcs)
	m.h = m.h[:0]
	mergers.Put(m)
}

// mergeItem is one source's current head: its key and the source index.
type mergeItem struct {
	key Key
	src int
}

// siftDown restores the heap property of h below index i.
func siftDown(h []mergeItem, i int) {
	n := len(h)
	for {
		least := i
		if l := 2*i + 1; l < n && h[l].key < h[least].key {
			least = l
		}
		if r := 2*i + 2; r < n && h[r].key < h[least].key {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
