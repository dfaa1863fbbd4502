package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// wheelTrace runs a randomized adversarial schedule and records the exact
// dispatch sequence: far-future inserts across every wheel level (including
// the overflow tier), same-instant storms at shared far deadlines, tick
// boundary cases, short-lived procs, partition pinning, a mid-run RunFor
// window with events left pending (which Shutdown then cancels), and a
// final Run to completion. The log captures (virtual now, event id) per
// dispatch plus the end-of-phase clocks, so two runs agree iff their entire
// dispatch histories agree.
func wheelTrace(t *testing.T, seed int64, disableWheel bool) []string {
	t.Helper()
	s := New()
	s.disableWheel = disableWheel
	const partitions = 4 // the global one plus three added
	for i := 1; i < partitions; i++ {
		s.AddPartition()
	}
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
			case 1: // short-lived proc on a random partition
				part := rng.Intn(partitions)
				naps := 1 + rng.Intn(3)
				ds := make([]Duration, naps)
				for j := range ds {
					ds[j] = delta()
				}
				s.SpawnOn(part, fmt.Sprintf("p%d", myID), func(p *Proc) {
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

	plant(40)
	s.RunFor(Duration(rng.Intn(1 << 22)))
	log = append(log, fmt.Sprintf("window@%d pending=%d", s.Now(), s.pending()))
	plant(40)
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	log = append(log, fmt.Sprintf("end@%d", s.Now()))
	// Replant and cancel everything mid-flight: clearEvents must empty the
	// wheel too, and a later Run must see a truly empty scheduler.
	plant(20)
	s.RunFor(Duration(rng.Intn(1 << 21)))
	log = append(log, fmt.Sprintf("window2@%d pending=%d", s.Now(), s.pending()))
	s.Shutdown()
	log = append(log, fmt.Sprintf("shutdown@%d pending=%d", s.Now(), s.pending()))
	if err := s.Run(); err != nil {
		t.Fatalf("post-shutdown run: %v", err)
	}
	return log
}

// TestWheelMatchesReferenceHeap is the determinism proof for the timer
// tier: under adversarial randomized schedules, the dispatch sequence with
// the wheel enabled must be identical — event for event, instant for
// instant — to the pure reference heap (disableWheel).
func TestWheelMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		ref := wheelTrace(t, seed, true)
		got := wheelTrace(t, seed, false)
		if len(got) != len(ref) {
			t.Fatalf("seed %d: %d dispatches, reference %d", seed, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: dispatch %d = %q, reference %q", seed, i, got[i], ref[i])
			}
		}
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
