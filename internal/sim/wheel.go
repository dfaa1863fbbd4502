package sim

import "math/bits"

// This file implements the hierarchical timer tier that fronts the event
// heap: a four-level timing wheel plus an overflow heap, in the style of
// Varghese & Lauck's hierarchical timing wheels. Far-future events
// (open-loop arrival schedules, timeouts) cost O(1) to insert instead of an
// O(log n) sift through a heap holding every pending timer, and they spill
// into the (t, partition, seq)-ordered heap only near their deadline, so
// the hot near-term dispatch path never pays for idle far timers.
//
// Determinism contract: the wheel is a staging area only. Every event
// reaches the heap (carrying its original full ordering key) strictly
// before the simulator could dispatch anything at or after the event's
// tick — syncTier enforces htick > candidate-tick before any peek or pop
// trusts the ring/heap candidate — so the dispatch sequence is provably
// identical to a single reference heap (pinned by TestWheelMatchesReferenceHeap).

const (
	// wheelTickShift sets the wheel granularity: 1<<10 ns ≈ 1µs ticks.
	wheelTickShift = 10
	// wheelBits gives 256 slots per level. Level l slots span 1<<(8l)
	// ticks, so the four levels hold deadlines up to 1<<32 ticks (~73
	// virtual minutes) ahead of the horizon; the rest lands in the
	// overflow heap.
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelLevels = 4
	// wheelNearTicks is the near-deadline threshold: events due within this
	// many ticks of now (~1ms) skip the wheel and go straight to the heap.
	// Device-model charges (CPU, disk, network) are almost all sub-ms, so
	// ordinary workloads keep the old single-heap behavior and allocation
	// profile; the wheel engages for genuinely far timers — open-loop
	// arrival schedules, timeouts — where heaps degrade.
	wheelNearTicks = 1024
	// wheelChunkLen is the number of events per bucket chunk (256 × 40 B =
	// 10 KiB). Larger chunks cost bytes in part-filled tails across the
	// 1 024 buckets; smaller ones cost a malloc per chunk on the first
	// fill of a fresh Sim (EXPERIMENTS.md TAB-CHURN, wheel storage).
	wheelChunkLen = 256
)

// wheelChunk is a fixed block of bucket storage. A bucket is a singly
// linked list of chunks, filled front to back; only its tail chunk may be
// part-full. Chunks never grow, so filling a bucket never copies an event.
type wheelChunk struct {
	ev   [wheelChunkLen]event
	n    int
	next *wheelChunk
}

// wheelBucket is one ring slot: a head/tail chunk list, nil when empty.
type wheelBucket struct {
	head, tail *wheelChunk
}

// tickOf maps a virtual time to its wheel tick.
func tickOf(t Time) int64 { return int64(t) >> wheelTickShift }

// timerWheel holds far-future events bucketed by tick. An event's level is
// chosen by its distance to the horizon — delta < 1<<(8(l+1)) ticks files
// at level l — and its slot by the absolute tick bits for that level, so a
// slot is a 1<<(8l)-tick span of absolute time and the 256-slot ring of
// level l covers exactly the range of deltas the level accepts. Distance-
// based placement (rather than an xor prefix against the horizon) means a
// deadline's level never depends on where the horizon sits relative to a
// power-of-two boundary: a steady stream of "+10s" timeouts always files
// at the same level, instead of resonating into one giant straddling
// bucket whenever the horizon nears a 2^24-tick block edge. Allocated
// lazily on the first far-future insert.
type timerWheel struct {
	// htick is the horizon: every event held by the wheel has tick >= htick.
	htick int64
	// collected[l] is the last absolute level-l slot (tick >> 8l) whose
	// bucket has been emptied; advanceTo collects the ring range
	// (collected[l], (newH-1)>>8l] exactly once per slot. Because level-l
	// deltas are bounded by the ring span, every occupied slot's absolute
	// index lies in (collected[l], collected[l]+256], which is what lets a
	// ring index map back to a unique absolute slot (earliestTick relies
	// on this).
	collected [wheelLevels]int64
	// slots[l][s] holds the events of level l, ring slot s; bitmap[l]
	// marks non-empty slots (bit s of word s/64).
	slots  [wheelLevels][wheelSlots]wheelBucket
	bitmap [wheelLevels][wheelSlots / 64]uint64
	// free lists the chunks no bucket holds, linked through next. Every
	// chunk on it is zeroed, so parked storage retains no closure or proc.
	free *wheelChunk
	// overflow holds events beyond the top level's reach, full-key ordered.
	overflow eventHeap
	// count is the total number of events held, including overflow.
	count int
	// minLB is a lower bound on the earliest held tick (exact when that
	// event sits in level 0 or the overflow heap), maintained so syncTier
	// can dismiss the whole wheel with one comparison while the hot
	// near-term path runs. Meaningless when count == 0.
	minLB int64
}

func newTimerWheel(htick int64) *timerWheel {
	w := &timerWheel{}
	w.reset(htick)
	return w
}

// reset moves the horizon of an empty wheel.
func (w *timerWheel) reset(htick int64) {
	w.htick = htick
	for l := range w.collected {
		w.collected[l] = (htick - 1) >> (wheelBits * l)
	}
}

// place files e under the current horizon. The caller guarantees
// tickOf(e.t) >= htick (schedule's near-threshold and advanceTo's cursor
// ordering ensure this); events below the horizon go through out instead,
// which routes them to the sim's heap.
func (w *timerWheel) place(e event, out func(event)) {
	t := tickOf(e.t)
	delta := t - w.htick
	if delta < wheelNearTicks {
		// Near (or past) deadline: hand straight to the heap. Cascading
		// survivors re-place through here, so an event's last wheel hop
		// ends at the heap instead of marching through level 0 — the heap
		// was going to hold it within a millisecond anyway.
		out(e)
		return
	}
	if w.count == 0 || t < w.minLB {
		w.minLB = t
	}
	l := uint(bits.Len64(uint64(delta))-1) / wheelBits
	if l >= wheelLevels {
		w.overflow.push(e)
		w.count++
		return
	}
	s := uint(t>>(wheelBits*l)) & (wheelSlots - 1)
	b := &w.slots[l][s]
	c := b.tail
	if c == nil || c.n == wheelChunkLen {
		nc := w.free
		if nc != nil {
			w.free = nc.next
			nc.next = nil
		} else {
			nc = new(wheelChunk)
		}
		if c == nil {
			b.head = nc
		} else {
			c.next = nc
		}
		b.tail = nc
		c = nc
	}
	c.ev[c.n] = e
	c.n++
	w.bitmap[l][s>>6] |= 1 << (s & 63)
	w.count++
}

// release zeroes c's used events and parks it on the free list.
func (w *timerWheel) release(c *wheelChunk) {
	clear(c.ev[:c.n])
	c.n = 0
	c.next = w.free
	w.free = c
}

// earliestTick returns a lower bound on the earliest held event's tick
// (exact for level 0 and overflow, a slot-span start otherwise). Must not
// be called on an empty wheel.
func (w *timerWheel) earliestTick() int64 {
	best := int64(1)<<62 - 1
	for l := 0; l < wheelLevels; l++ {
		shift := uint(wheelBits * l)
		base := w.collected[l] + 1
		if s, ok := w.firstSlotFrom(l, uint(base)&(wheelSlots-1)); ok {
			abs := base + int64((s-uint(base))&(wheelSlots-1))
			if t := abs << shift; t < best {
				best = t
			}
		}
	}
	if len(w.overflow) > 0 {
		if t := tickOf(w.overflow[0].t); t < best {
			best = t
		}
	}
	return best
}

// firstSlotFrom returns the first non-empty ring slot of level l in ring
// order starting at from (wrapping past 255 back to 0).
func (w *timerWheel) firstSlotFrom(l int, from uint) (uint, bool) {
	const words = wheelSlots / 64
	for k := 0; k <= words; k++ {
		wi := (from>>6 + uint(k)) % words
		word := w.bitmap[l][wi]
		if k == 0 {
			word &= ^uint64(0) << (from & 63)
		} else if k == words && from&63 != 0 {
			word &= 1<<(from&63) - 1
		}
		if word != 0 {
			return wi<<6 + uint(bits.TrailingZeros64(word)), true
		}
	}
	return 0, false
}

// collectRange empties level l's ring slots [lo, hi] (inclusive,
// bitmap-driven). The caller has already moved the horizon to newH, so
// dead events (tick < newH) stream straight out to the sim heap and
// survivors re-place in place: their delta under the new horizon is
// strictly below this level's slot span, so they cascade bucket-to-bucket
// into a lower level with no staging buffer and no extra copy. The slot's
// chunk list is detached before the walk, so even a lap-ahead event — same
// ring slot, one revolution later, which advanceTo's cursors never leave
// in a collected slot — would land in a fresh chunk, not in the list being
// walked (TestWheelLapAheadReplace). Each walked chunk goes back on the
// free list.
func (w *timerWheel) collectRange(l int, lo, hi uint, newH int64, out func(event)) {
	if hi >= wheelSlots {
		hi = wheelSlots - 1
	}
	if lo > hi {
		return
	}
	for wi := lo >> 6; wi <= hi>>6; wi++ {
		word := w.bitmap[l][wi]
		if word == 0 {
			continue
		}
		// Mask the word down to bits within [lo, hi].
		if wi == lo>>6 {
			word &= ^uint64(0) << (lo & 63)
		}
		if wi == hi>>6 && (hi&63) != 63 {
			word &= 1<<((hi&63)+1) - 1
		}
		w.bitmap[l][wi] &^= word
		for word != 0 {
			s := uint(wi)<<6 + uint(bits.TrailingZeros64(word))
			word &= word - 1
			c := w.slots[l][s].head
			w.slots[l][s] = wheelBucket{}
			for c != nil {
				w.count -= c.n
				for _, e := range c.ev[:c.n] {
					if tickOf(e.t) < newH {
						out(e)
					} else {
						w.place(e, out)
					}
				}
				next := c.next
				w.release(c)
				c = next
			}
		}
	}
}

// advanceTo moves the horizon to newH. Events with tick < newH leave the
// wheel through out (carrying their original ordering keys); events whose
// level assignment tightens under the new horizon cascade down. Each event
// cascades at most wheelLevels times over its lifetime.
func (w *timerWheel) advanceTo(newH int64, out func(event)) {
	if newH <= w.htick {
		return
	}
	if w.count == 0 {
		w.reset(newH)
		return
	}
	// The horizon moves first: survivors re-placed during collection then
	// file by their true distance to newH, which is strictly below the
	// collected level's slot span — every cascade goes downward, never back
	// into a range this loop has yet to visit (a placed event's absolute
	// slot always lies beyond the level's cursor).
	w.htick = newH
	// Per level: collect the absolute slots in (collected[l], (newH-1)>>8l]
	// exactly once each — every slot whose span the new horizon has entered
	// or passed. A jump of 256+ slots collects the whole ring.
	for l := 0; l < wheelLevels; l++ {
		shift := uint(wheelBits * l)
		from := w.collected[l] + 1
		to := (newH - 1) >> shift
		if to < from {
			continue
		}
		w.collected[l] = to
		if to-from >= wheelSlots-1 {
			w.collectRange(l, 0, wheelSlots-1, newH, out)
			continue
		}
		loR, hiR := uint(from)&(wheelSlots-1), uint(to)&(wheelSlots-1)
		if loR <= hiR {
			w.collectRange(l, loR, hiR, newH, out)
		} else {
			w.collectRange(l, loR, wheelSlots-1, newH, out)
			w.collectRange(l, 0, hiR, newH, out)
		}
	}
	// Overflow: entries now within the top level's reach rehome into the
	// rings (or straight out, if already due or near).
	const span = int64(1) << (wheelLevels * wheelBits)
	for len(w.overflow) > 0 && tickOf(w.overflow[0].t)-newH < span {
		e := w.overflow.pop()
		w.count--
		if tickOf(e.t) < newH {
			out(e)
		} else {
			w.place(e, out)
		}
	}
	// Rehoming may have drained the earliest events to out; re-derive the
	// bound from what actually remains. Every bound earliestTick can
	// return is >= newH (collected cursors just moved past newH-1), so
	// syncTier's advance loop strictly progresses.
	if w.count > 0 {
		w.minLB = w.earliestTick()
	}
}

// clear drops every held event, returns every chunk to the free list
// zeroed, and resets the horizon.
func (w *timerWheel) clear(htick int64) {
	for l := 0; l < wheelLevels; l++ {
		for s := range w.slots[l] {
			for c := w.slots[l][s].head; c != nil; {
				next := c.next
				w.release(c)
				c = next
			}
			w.slots[l][s] = wheelBucket{}
		}
		for i := range w.bitmap[l] {
			w.bitmap[l][i] = 0
		}
	}
	for i := range w.overflow {
		w.overflow[i] = event{}
	}
	w.overflow = w.overflow[:0]
	w.count = 0
	w.reset(htick)
}
