package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// wheelTrace runs a randomized adversarial schedule and records the exact
// dispatch sequence: far-future inserts across every wheel level (including
// the overflow tier), same-instant storms at shared far deadlines, tick
// boundary cases, short-lived procs, a mid-run RunFor
// window with events left pending (which Shutdown then cancels), and a
// final Run to completion. fanout is the number of roots planted before
// each run phase (half of it before the cancelled one). The log captures
// (virtual now, event id) per dispatch plus the end-of-phase clocks, so two
// runs agree iff their entire dispatch histories agree.
func wheelTrace(t *testing.T, seed int64, fanout int, disableWheel bool) []string {
	t.Helper()
	s := New()
	s.disableWheel = disableWheel
	rng := rand.New(rand.NewSource(seed))
	var log []string
	id := 0

	// deltas adversarial to the tier: ring (0), sub-tick, the near/far
	// threshold's both sides, exact level-0/1/2 spans, and overflow range.
	delta := func() Duration {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return Duration(rng.Intn(1024))
		case 2:
			return Duration(wheelNearTicks<<wheelTickShift + rng.Intn(3) - 1)
		case 3:
			return Duration(rng.Intn(1 << (wheelTickShift + wheelBits)))
		case 4:
			return Duration(rng.Intn(1 << (wheelTickShift + 2*wheelBits)))
		case 5:
			return Duration(rng.Intn(1 << (wheelTickShift + 3*wheelBits)))
		case 6: // top wheel level and, occasionally, the overflow heap
			if rng.Intn(4) == 0 {
				return Duration(1<<(wheelTickShift+wheelLevels*wheelBits) + rng.Int63n(1<<40))
			}
			return Duration(1<<(wheelTickShift+3*wheelBits) + rng.Intn(1<<30))
		case 7: // exact tick boundaries
			return Duration(rng.Intn(1<<20)) << wheelTickShift
		default:
			return Duration(rng.Intn(64 << 20))
		}
	}

	var plant func(fanout int)
	plant = func(fanout int) {
		for i := 0; i < fanout; i++ {
			id++
			myID := id
			switch rng.Intn(5) {
			case 0: // same-instant storm at one far deadline
				d := delta()
				n := 2 + rng.Intn(6)
				for j := 0; j < n; j++ {
					id++
					sid := id
					s.After(d, func() {
						log = append(log, fmt.Sprintf("storm%d@%d", sid, s.Now()))
					})
				}
			case 1: // short-lived proc
				naps := 1 + rng.Intn(3)
				ds := make([]Duration, naps)
				for j := range ds {
					ds[j] = delta()
				}
				s.Spawn(fmt.Sprintf("p%d", myID), func(p *Proc) {
					for _, d := range ds {
						p.Sleep(d)
						log = append(log, fmt.Sprintf("proc%d@%d", myID, s.Now()))
					}
				})
			default: // plain timer, possibly replanting more events
				more := rng.Intn(3) == 0
				s.After(delta(), func() {
					log = append(log, fmt.Sprintf("ev%d@%d", myID, s.Now()))
					if more && id < 3000 {
						plant(1 + rng.Intn(2))
					}
				})
			}
		}
	}

	plant(fanout)
	s.RunFor(Duration(rng.Intn(1 << 22)))
	log = append(log, fmt.Sprintf("window@%d pending=%d", s.Now(), s.pending()))
	plant(fanout)
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	log = append(log, fmt.Sprintf("end@%d", s.Now()))
	// Replant and cancel everything mid-flight: clearEvents must empty the
	// wheel too, and a later Run must see a truly empty scheduler.
	plant(fanout / 2)
	s.RunFor(Duration(rng.Intn(1 << 21)))
	log = append(log, fmt.Sprintf("window2@%d pending=%d", s.Now(), s.pending()))
	s.Shutdown()
	log = append(log, fmt.Sprintf("shutdown@%d pending=%d", s.Now(), s.pending()))
	if err := s.Run(); err != nil {
		t.Fatalf("post-shutdown run: %v", err)
	}
	return log
}

// wheelMatchesReferenceHeap drives one schedule through the wheel-fronted
// heap and through the pure reference heap (disableWheel) and fails on the
// first dispatch where the two differ.
func wheelMatchesReferenceHeap(t *testing.T, seed int64, fanout int) {
	t.Helper()
	ref := wheelTrace(t, seed, fanout, true)
	got := wheelTrace(t, seed, fanout, false)
	if len(got) != len(ref) {
		t.Fatalf("seed %d fanout %d: %d dispatches, reference %d", seed, fanout, len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("seed %d fanout %d: dispatch %d = %q, reference %q", seed, fanout, i, got[i], ref[i])
		}
	}
}

// TestWheelMatchesReferenceHeap is the determinism proof for the timer
// tier: under adversarial randomized schedules, the dispatch sequence with
// the wheel enabled must be identical — event for event, instant for
// instant — to the pure reference heap. Its cases are the seed corpus of
// FuzzWheelMatchesReferenceHeap.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		wheelMatchesReferenceHeap(t, seed, 40)
	}
}

// FuzzWheelMatchesReferenceHeap searches for a schedule on which the wheel
// and the reference heap dispatch differently. fanout is capped so one
// input stays a few thousand events.
func FuzzWheelMatchesReferenceHeap(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(40))
	}
	f.Fuzz(func(t *testing.T, seed int64, fanout uint8) {
		wheelMatchesReferenceHeap(t, seed, int(fanout%64))
	})
}

// TestWheelChunkBoundaries files n far events in one bucket — empty, one
// event, a chunk less one, exactly a chunk, a chunk plus one, several
// chunks — with ties on t, and checks the bucket's chunk list and that the
// events dispatch in (t, insertion) order.
func TestWheelChunkBoundaries(t *testing.T) {
	type key struct {
		t Time
		i int // insertion order, hence seq order
	}
	for _, n := range []int{0, 1, wheelChunkLen - 1, wheelChunkLen, wheelChunkLen + 1, 1000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			s := New()
			rng := rand.New(rand.NewSource(int64(n)))
			// Level-1 slot 8 spans ticks [2048, 2304): every deadline is far
			// from now = 0 and lands in that one bucket.
			const slot = 8
			var want, got []key
			for i := 0; i < n; i++ {
				k := key{
					t: Time(slot<<wheelBits+4*rng.Intn(64))<<wheelTickShift + Time(rng.Intn(3)),
					i: i,
				}
				want = append(want, k)
				s.At(k.t, func() { got = append(got, key{s.Now(), k.i}) })
			}

			if n > 0 {
				b := s.wheel.slots[1][slot]
				chunks, held := 0, 0
				for c := b.head; c != nil; c = c.next {
					chunks++
					held += c.n
					if c.next != nil && c.n != wheelChunkLen {
						t.Fatalf("chunk %d holds %d events before the tail", chunks, c.n)
					}
				}
				if b.tail == nil || b.tail.next != nil {
					t.Fatal("bucket tail is not the last chunk")
				}
				if wantChunks := (n + wheelChunkLen - 1) / wheelChunkLen; chunks != wantChunks || held != n || s.wheel.count != n {
					t.Fatalf("bucket holds %d events in %d chunks (wheel count %d), want %d in %d",
						held, chunks, s.wheel.count, n, wantChunks)
				}
			}

			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			slices.SortFunc(want, func(a, b key) int {
				return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.i, b.i))
			})
			if !slices.Equal(got, want) {
				t.Fatalf("dispatched %d events out of (t, insertion) order, want %d", len(got), len(want))
			}
		})
	}
}

// TestWheelLapAheadReplace pins collectRange's aliasing case: a bucket
// holding events for its ring slot and for the same slot one revolution
// later, so walking it re-places the lap-ahead half into the very ring
// slot being collected. advanceTo's cursors never build such a bucket, so
// the test plants one by moving the horizon by hand. Every re-place must
// land outside the chunk being walked, and each event must leave the walk
// exactly once.
func TestWheelLapAheadReplace(t *testing.T) {
	const (
		slot = 8
		n    = 2*wheelChunkLen + 44 // three chunks, the last part-full
		due  = slot << wheelBits    // level 1 under horizon 0
		lap  = due + wheelSlots<<wheelBits
	)
	w := newTimerWheel(0)
	var out []event
	sink := func(e event) { out = append(out, e) }
	for i := 0; i < n; i++ {
		tick, h := int64(due+i%200), int64(0)
		if i%2 == 1 {
			tick, h = lap+int64(i%200), 3000 // same level, same ring slot
		}
		w.htick = h
		w.place(event{t: Time(tick << wheelTickShift), seq: uint64(i)}, sink)
	}
	var walked []*wheelChunk
	for c := w.slots[1][slot].head; c != nil; c = c.next {
		walked = append(walked, c)
	}
	if len(out) != 0 || len(walked) != 3 || w.count != n {
		t.Fatalf("setup: %d spilled, %d chunks, count %d", len(out), len(walked), w.count)
	}

	// Every due event is out by the new horizon; every lap-ahead one is
	// still a level-1 delta from it and maps back to the same ring slot.
	const newH = due + 256
	w.htick = newH
	sink = func(e event) {
		// Mid-walk: the chunk holding e is being walked right now.
		walking := walked[e.seq/wheelChunkLen]
		for c := w.slots[1][slot].head; c != nil; c = c.next {
			if c == walking {
				t.Fatalf("event %d: a re-place landed in the chunk being walked", e.seq)
			}
		}
		out = append(out, e)
	}
	w.collectRange(1, slot, slot, newH, sink)

	if len(out) != n/2 {
		t.Fatalf("%d events spilled, want %d", len(out), n/2)
	}
	for i, e := range out {
		if e.seq != uint64(2*i) {
			t.Fatalf("spill %d is event %d, want %d", i, e.seq, 2*i)
		}
	}
	var held []uint64
	for c := w.slots[1][slot].head; c != nil; c = c.next {
		for _, e := range c.ev[:c.n] {
			held = append(held, e.seq)
		}
	}
	if len(held) != n/2 || w.count != n/2 || w.bitmap[1][slot>>6]&(1<<(slot&63)) == 0 {
		t.Fatalf("slot holds %d events (count %d), want the %d lap-ahead ones, bitmap set", len(held), w.count, n/2)
	}
	for i, seq := range held {
		if seq != uint64(2*i+1) {
			t.Fatalf("re-placed event %d is %d, want %d", i, seq, 2*i+1)
		}
	}
}

// TestWheelShutdownZeroesChunks checks that a shut-down wheel parks all of
// its storage zeroed: cascades and clear return chunks to the free list,
// and none of them may keep a closure or a proc reachable.
func TestWheelShutdownZeroesChunks(t *testing.T) {
	s := New()
	spread := churnSpread{state: 0x9e3779b97f4a7c15}
	for i := 0; i < 2000; i++ {
		s.After(Second+spread.next(2*Second), func() {})
		s.Spawn("sleeper", func(p *Proc) { p.Sleep(Second + spread.next(2*Second)) })
	}
	// Stop midway, so some buckets have cascaded and some still hold events.
	s.RunFor(2 * Second)
	if s.wheel.count == 0 || s.wheel.free == nil {
		t.Fatalf("setup: wheel holds %d events, free list empty: %v", s.wheel.count, s.wheel.free == nil)
	}
	s.Shutdown()
	w := s.wheel
	if w.count != 0 {
		t.Fatalf("wheel holds %d events after Shutdown", w.count)
	}
	for l := range w.slots {
		for i, b := range w.slots[l] {
			if b.head != nil || b.tail != nil {
				t.Fatalf("level %d slot %d kept its chunks after Shutdown", l, i)
			}
		}
	}
	chunks := 0
	for c := w.free; c != nil; c = c.next {
		chunks++
		if c.n != 0 {
			t.Fatalf("free chunk %d has n = %d", chunks, c.n)
		}
		for i, e := range c.ev {
			if e.fn != nil || e.proc != nil {
				t.Fatalf("free chunk %d slot %d still holds fn=%v proc=%v", chunks, i, e.fn != nil, e.proc != nil)
			}
		}
	}
	if chunks == 0 {
		t.Fatal("no chunk reached the free list")
	}
}

// TestWheelStats pins the counters the telemetry layer exports: far timers
// route through the wheel, dispatched ones spill through the heap, and the
// two agree when every event fires.
func TestWheelStats(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		s.After(Duration(i)*Millisecond+2*Millisecond, func() {})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.SchedStats()
	if st.WheelHits != 100 {
		t.Errorf("wheel hits = %d, want 100", st.WheelHits)
	}
	if st.HeapSpills != 100 {
		t.Errorf("heap spills = %d, want 100", st.HeapSpills)
	}
	// Near events never touch the wheel.
	s2 := New()
	for i := 0; i < 50; i++ {
		s2.After(Duration(i)*Microsecond, func() {})
	}
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if st := s2.SchedStats(); st.WheelHits != 0 || st.HeapSpills != 0 {
		t.Errorf("near-only run touched the wheel: %+v", st)
	}
}

// TestHeapShrinks pins the amortized shrink: after a burst of pending
// events drains, the heap's backing array must fall back toward the idle
// footprint instead of pinning its peak for the rest of the run.
func TestHeapShrinks(t *testing.T) {
	s := New()
	s.disableWheel = true // keep every event in the heap to exercise shrink
	const burst = 1 << 15
	for i := 0; i < burst; i++ {
		s.After(Duration(i+1)*Microsecond, func() {})
	}
	peak := cap(s.events)
	if peak < burst {
		t.Fatalf("peak cap %d < burst %d", peak, burst)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	idle := cap(s.events)
	if idle > peak/64 {
		t.Errorf("idle heap cap %d did not shrink from peak %d", idle, peak)
	}
	if idle < minHeapCap {
		t.Errorf("idle heap cap %d fell below the floor %d", idle, minHeapCap)
	}
	// The floor holds: a small sim never shrinks below minHeapCap.
	var h eventHeap
	for i := 0; i < minHeapCap*2; i++ {
		h.push(event{t: Time(i)})
	}
	for len(h) > 0 {
		h.pop()
	}
	if cap(h) < minHeapCap {
		t.Errorf("small heap cap %d below floor %d", cap(h), minHeapCap)
	}
}
