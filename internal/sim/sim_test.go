package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrder(t *testing.T) {
	s := New()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("final time = %v, want 30", s.Now())
	}
}

func TestEventTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestPastEventClampedToPresent(t *testing.T) {
	s := New()
	fired := Time(-1)
	s.At(100, func() {
		s.At(5, func() { fired = s.Now() }) // in the past
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 100 {
		t.Fatalf("past event fired at %v, want clamped to 100", fired)
	}
}

// TestEventOrderProperty: any batch of randomly-timed events fires in
// nondecreasing time order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		s := New()
		var fired []Time
		for _, d := range delays {
			s.At(Time(d), func() { fired = append(fired, s.Now()) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleep(t *testing.T) {
	s := New()
	var wake []Time
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Millisecond)
			wake = append(wake, p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(10 * Millisecond), Time(20 * Millisecond), Time(30 * Millisecond)}
	for i := range want {
		if wake[i] != want[i] {
			t.Fatalf("wake times %v, want %v", wake, want)
		}
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := New()
		var trace []string
		for _, name := range []string{"a", "b"} {
			name := name
			s.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, fmt.Sprintf("%s%d@%d", name, i, p.Now()))
					p.Sleep(Duration(5 * Millisecond))
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("nondeterministic interleave: %v vs %v", got, first)
		}
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	s := New()
	c := NewCond(s, "test")
	var woken []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			c.Wait(p)
			woken = append(woken, name)
		})
	}
	s.Spawn("signaller", func(p *Proc) {
		p.Sleep(Millisecond) // let waiters park
		c.Signal()
		p.Sleep(Millisecond)
		c.Broadcast()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w1", "w2", "w3"}
	if fmt.Sprint(woken) != fmt.Sprint(want) {
		t.Fatalf("wake order %v, want %v", woken, want)
	}
}

func TestCondSignalNoWaiters(t *testing.T) {
	s := New()
	c := NewCond(s, "empty")
	c.Signal()    // must not panic or queue anything
	c.Broadcast() // ditto
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	c := NewCond(s, "never-signalled")
	s.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	err := s.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked = %v, want 1 proc", de.Blocked)
	}
}

// runPanics runs s and returns the value Run panicked with (nil if it
// returned).
func runPanics(s *Sim) (r any) {
	defer func() { r = recover() }()
	s.Run()
	return
}

// TestProcPanicPropagates: a proc's panic reaches Run's caller with its
// original value and leaves the sim in scheduler context, so the survivors
// can still be shut down.
func TestProcPanicPropagates(t *testing.T) {
	s := New()
	c := NewCond(s, "never")
	unwound := false
	s.Spawn("bystander", func(p *Proc) {
		defer func() { unwound = true }()
		c.Wait(p)
	})
	s.Spawn("boom", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("kaboom")
	})
	if r := runPanics(s); r != "kaboom" {
		t.Fatalf("recovered %v, want kaboom", r)
	}
	if s.inProc {
		t.Error("inProc still set after the panic left Run")
	}
	if len(s.procs) != 1 {
		t.Errorf("%d live procs after the panic, want 1 (the bystander)", len(s.procs))
	}
	s.Shutdown()
	if !unwound || len(s.procs) != 0 || c.Waiters() != 0 {
		t.Errorf("Shutdown after panic: unwound=%v procs=%d waiters=%d", unwound, len(s.procs), c.Waiters())
	}
}

// TestKillUnstartedProc: a proc killed between Spawn and its first dispatch
// never runs its body, and its queued start event is ignored.
func TestKillUnstartedProc(t *testing.T) {
	s := New()
	ran := false
	p := s.Spawn("unstarted", func(p *Proc) { ran = true })
	s.Spawn("worker", func(p *Proc) { p.Sleep(Microsecond) })
	s.Kill(p)
	if len(s.procs) != 1 {
		t.Fatalf("%d live procs after Kill, want 1", len(s.procs))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("killed proc ran its body")
	}
	if got, want := s.Now(), Time(Microsecond); got != want {
		t.Errorf("end time %v, want %v", got, want)
	}
}

// TestNoGoroutineLeak: every proc is a coroutine with a goroutine behind it;
// each way a sim can end must leave none behind.
func TestNoGoroutineLeak(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"pooled procs then Run", func(t *testing.T) {
			s := New()
			s.Spawn("gen", func(p *Proc) {
				for round := 0; round < 10; round++ {
					for i := 0; i < 10; i++ {
						s.Spawn("w", func(q *Proc) { q.Sleep(Microsecond) })
					}
					p.Sleep(2 * Microsecond)
				}
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if st := s.SchedStats(); st.ProcReuses != 90 {
				t.Errorf("proc reuses = %d, want 90", st.ProcReuses)
			}
		}},
		{"cond deadlock", func(t *testing.T) {
			s := New()
			c := NewCond(s, "never")
			for i := 0; i < 10; i++ {
				s.Spawn("stuck", func(p *Proc) { c.Wait(p) })
			}
			var dl *DeadlockError
			if err := s.Run(); !errors.As(err, &dl) || len(dl.Blocked) != 10 {
				t.Fatalf("Run = %v, want DeadlockError naming 10 procs", err)
			}
		}},
		{"RunFor, late Spawn, Shutdown", func(t *testing.T) {
			s := New()
			for i := 0; i < 5; i++ {
				s.Spawn("short", func(p *Proc) { p.Sleep(Microsecond) })
				s.Spawn("long", func(p *Proc) { p.Sleep(Second) })
			}
			s.RunFor(Millisecond) // the short shells are pooled, the long procs parked
			for i := 0; i < 5; i++ {
				s.Spawn("late", func(p *Proc) { p.Sleep(Second) })
			}
			s.Shutdown()
		}},
		{"Spawn, Shutdown, Run never called", func(t *testing.T) {
			s := New()
			for i := 0; i < 5; i++ {
				s.Spawn("unstarted", func(p *Proc) { t.Error("unstarted proc ran") })
			}
			s.Shutdown()
		}},
		{"proc panic then Shutdown", func(t *testing.T) {
			s := New()
			for i := 0; i < 5; i++ {
				s.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
			}
			s.Spawn("boom", func(p *Proc) {
				p.Sleep(Microsecond)
				panic("kaboom")
			})
			if r := runPanics(s); r != "kaboom" {
				t.Fatalf("recovered %v, want kaboom", r)
			}
			s.Shutdown()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			tc.run(t)
			// A coroutine's goroutine is destroyed inside the switch that
			// ends it, so nothing has to be waited for. The previous
			// subtest's own goroutine may still be exiting and make before
			// read one high; every case leaks at least five when broken.
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("goroutines: %d before, %d after", before, after)
			}
		})
	}
}

func TestQueueFIFO(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q", 4)
	var got []int
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < 100; i++ {
			if err := q.Put(p, i); err != nil {
				t.Errorf("Put: %v", err)
			}
		}
		q.Close()
	})
	s.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
			p.Sleep(Microsecond) // consumer slower than producer: exercises backpressure
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("consumed %d, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, v)
		}
	}
}

func TestQueueBackpressureBound(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q", 3)
	maxLen := 0
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < 50; i++ {
			q.Put(p, i)
			if q.Len() > maxLen {
				maxLen = q.Len()
			}
		}
		q.Close()
	})
	s.Spawn("consumer", func(p *Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
			p.Sleep(Millisecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxLen > 3 {
		t.Fatalf("queue grew to %d, capacity 3", maxLen)
	}
}

func TestQueuePutAfterClose(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q", 1)
	var err error
	s.Spawn("p", func(p *Proc) {
		q.Close()
		err = q.Put(p, 1)
	})
	if e := s.Run(); e != nil {
		t.Fatal(e)
	}
	if err != ErrClosed {
		t.Fatalf("Put after close = %v, want ErrClosed", err)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q", 8)
	var got []int
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Put(p, i)
		}
		q.Close()
		for {
			v, ok := q.Get(p)
			if !ok {
				break
			}
			got = append(got, v)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("drained %d, want 5 (buffered values must survive Close)", len(got))
	}
}

// TestQueueLastWait: after a Get, LastWait is the time that element sat in
// the buffer — the producer's Sleep for one buffered across it, zero for one
// handed to a consumer already waiting — and the waits add up to WaitStats.
func TestQueueLastWait(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q", 4)
	var waits []Duration
	s.Spawn("producer", func(p *Proc) {
		q.Put(p, 0) // buffered at t=0, taken at t=3ms
		q.Put(p, 1) // buffered at t=0, taken at t=3ms, after element 0
		p.Sleep(5 * Millisecond)
		q.Put(p, 2) // the consumer is parked in Get: handed off at t=5ms
	})
	s.Spawn("consumer", func(p *Proc) {
		p.Sleep(3 * Millisecond)
		for i := 0; i < 3; i++ {
			if _, ok := q.Get(p); !ok {
				t.Error("queue closed")
			}
			waits = append(waits, q.LastWait())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Duration{3 * Millisecond, 3 * Millisecond, 0}
	if fmt.Sprint(waits) != fmt.Sprint(want) {
		t.Fatalf("LastWait after each Get = %v, want %v", waits, want)
	}
	if cum, _ := q.WaitStats(); cum != 6*Millisecond {
		t.Fatalf("WaitStats cumulative wait = %v, want 6ms", cum)
	}
}

func TestQueueManyProducersOneConsumerCounts(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "q", 2)
	const producers, each = 7, 13
	sum := 0
	for i := 0; i < producers; i++ {
		i := i
		s.Spawn(fmt.Sprintf("prod%d", i), func(p *Proc) {
			for j := 0; j < each; j++ {
				q.Put(p, 1)
				p.Sleep(Duration(i+1) * Microsecond)
			}
		})
	}
	s.Spawn("consumer", func(p *Proc) {
		for n := 0; n < producers*each; n++ {
			v, ok := q.Get(p)
			if !ok {
				t.Error("queue closed early")
				return
			}
			sum += v
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != producers*each {
		t.Fatalf("sum = %d, want %d", sum, producers*each)
	}
}

// TestQueueOrderProperty: with a single producer and single consumer, any
// put sequence is received in order regardless of capacity and timing.
func TestQueueOrderProperty(t *testing.T) {
	f := func(vals []int32, capRaw uint8, consumerDelayUS uint8) bool {
		capacity := int(capRaw%16) + 1
		s := New()
		q := NewQueue[int32](s, "q", capacity)
		var got []int32
		s.Spawn("prod", func(p *Proc) {
			for _, v := range vals {
				q.Put(p, v)
			}
			q.Close()
		})
		s.Spawn("cons", func(p *Proc) {
			for {
				v, ok := q.Get(p)
				if !ok {
					return
				}
				got = append(got, v)
				p.Sleep(Duration(consumerDelayUS) * Microsecond)
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceExclusiveFIFO(t *testing.T) {
	s := New()
	r := NewResource(s, "cpu")
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			r.Acquire(p)
			order = append(order, name+"+")
			p.Sleep(10 * Millisecond)
			order = append(order, name+"-")
			r.Release(p)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[a+ a- b+ b- c+ c-]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order %v, want %v (holds must not overlap)", order, want)
	}
	if r.Busy() != 30*Millisecond {
		t.Fatalf("busy = %v, want 30ms", r.Busy())
	}
}

func TestResourceUseAccumulatesBusy(t *testing.T) {
	s := New()
	r := NewResource(s, "cpu")
	s.Spawn("p", func(p *Proc) {
		r.Use(p, 5*Millisecond)
		p.Sleep(100 * Millisecond) // idle gap must not count
		r.Use(p, 7*Millisecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Busy() != 12*Millisecond {
		t.Fatalf("busy = %v, want 12ms", r.Busy())
	}
}

func TestResourceReleaseByNonOwnerPanics(t *testing.T) {
	s := New()
	r := NewResource(s, "cpu")
	s.Spawn("a", func(p *Proc) { r.Acquire(p); p.Sleep(Second) })
	s.Spawn("b", func(p *Proc) {
		p.Sleep(Millisecond)
		defer func() {
			if recover() == nil {
				t.Error("Release by non-owner did not panic")
			}
		}()
		r.Release(p)
	})
	s.Run()
	s.Shutdown()
}

type intervalRecorder struct{ ivs [][2]Time }

func (r *intervalRecorder) RecordBusy(from, to Time) { r.ivs = append(r.ivs, [2]Time{from, to}) }

func TestResourceRecorder(t *testing.T) {
	s := New()
	r := NewResource(s, "cpu")
	rec := &intervalRecorder{}
	r.SetRecorder(rec)
	s.Spawn("p", func(p *Proc) {
		r.Use(p, 3*Millisecond)
		p.Sleep(4 * Millisecond)
		r.Use(p, 5*Millisecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := [][2]Time{{0, Time(3 * Millisecond)}, {Time(7 * Millisecond), Time(12 * Millisecond)}}
	if fmt.Sprint(rec.ivs) != fmt.Sprint(want) {
		t.Fatalf("intervals %v, want %v", rec.ivs, want)
	}
}

func TestRunFor(t *testing.T) {
	s := New()
	ticks := 0
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(10 * Millisecond)
			ticks++
		}
	})
	s.RunFor(55 * Millisecond)
	if ticks != 5 {
		t.Fatalf("ticks = %d after 55ms, want 5", ticks)
	}
	if s.Now() != Time(55*Millisecond) {
		t.Fatalf("Now = %v, want 55ms", s.Now())
	}
	s.RunFor(45 * Millisecond)
	if ticks != 10 {
		t.Fatalf("ticks = %d after 100ms, want 10", ticks)
	}
	s.Shutdown()
}

func TestShutdownTerminatesProcs(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for {
				p.Sleep(Second)
			}
		})
	}
	s.RunFor(3 * Second)
	s.Shutdown()
	if len(s.procs) != 0 {
		t.Fatalf("%d procs alive after Shutdown", len(s.procs))
	}
	// After shutdown the sim is drained: Run returns immediately.
	if err := s.Run(); err != nil {
		t.Fatalf("Run after Shutdown: %v", err)
	}
}

func TestSpawnFromProc(t *testing.T) {
	s := New()
	var childTime Time
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(10 * Millisecond)
		s.Spawn("child", func(c *Proc) {
			c.Sleep(5 * Millisecond)
			childTime = c.Now()
		})
		p.Sleep(20 * Millisecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != Time(15*Millisecond) {
		t.Fatalf("child finished at %v, want 15ms", childTime)
	}
}

func TestTimeHelpers(t *testing.T) {
	if got := DurationOf(1.5); got != Duration(1500*Millisecond) {
		t.Fatalf("DurationOf(1.5) = %v", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds = %v", got)
	}
	if got := Time(1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Time.Seconds = %v", got)
	}
	if Time(Second).Add(Duration(Second)) != Time(2*Second) {
		t.Fatal("Add")
	}
}

// TestRandomWorkloadDeterminism drives a randomized producer/consumer mesh
// twice with the same seed and demands identical traces.
func TestRandomWorkloadDeterminism(t *testing.T) {
	run := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		q := NewQueue[int](s, "q", 5)
		r := NewResource(s, "cpu")
		var trace []string
		for i := 0; i < 4; i++ {
			i := i
			d := Duration(rng.Intn(1000)+1) * Microsecond
			s.Spawn(fmt.Sprintf("prod%d", i), func(p *Proc) {
				for j := 0; j < 20; j++ {
					q.Put(p, i*100+j)
					p.Sleep(d)
				}
			})
		}
		s.Spawn("cons", func(p *Proc) {
			for n := 0; n < 80; n++ {
				v, _ := q.Get(p)
				r.Use(p, 300*Microsecond)
				trace = append(trace, fmt.Sprintf("%d@%d", v, p.Now()))
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(trace)
	}
	if run(42) != run(42) {
		t.Fatal("same seed produced different traces")
	}
	if run(42) == run(43) {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}
