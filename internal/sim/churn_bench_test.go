package sim

import "testing"

// The churn micro set models the open-loop serving scenario from ROADMAP
// item 2: far-future timers by the hundred thousand (arrival schedules,
// timeouts), tens of thousands of short-lived procs, and bursty queue
// traffic. EXPERIMENTS.md "TAB-CHURN" tracks these numbers before/after the
// hierarchical scheduler tier.

// churnSpread is a deterministic LCG over [0, horizon) used to spread timer
// deadlines without pulling math/rand into the measurement loop.
type churnSpread struct{ state uint64 }

func (c *churnSpread) next(horizon Duration) Duration {
	c.state = c.state*6364136223846793005 + 1442695040888963407
	return Duration(int64(c.state>>33) % int64(horizon))
}

// BenchmarkFarTimerChurn schedules b.N far-future timers spread across a
// 256ms horizon, then drains them all. Before the timer wheel every insert
// and removal sifts a heap of up to b.N events (O(log n) with cache misses
// throughout); with the wheel, far inserts are O(1) bucket appends and only
// near-deadline events touch the heap.
func BenchmarkFarTimerChurn(b *testing.B) {
	s := New()
	nop := func() {}
	spread := churnSpread{state: 0x9e3779b97f4a7c15}
	base := Duration(Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(base+spread.next(256*Millisecond), nop)
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFarTimerSteadyState is the allocation gate for wheel chunk
// recycling (see make bench-allocs): one burst of far timers warms the
// wheel's free list, and every identical burst after it on the same Sim must
// file and drain without allocating. Each burst starts on a level-3 slot
// boundary, so all of them meet the same bucket layout and need the same
// number of chunks at their peak. One op is one burst.
func BenchmarkFarTimerSteadyState(b *testing.B) {
	const (
		burst = 4096
		align = Duration(1) << (wheelTickShift + 3*wheelBits)
	)
	s := New()
	nop := func() {}
	run := func() {
		s.RunFor(align - Duration(s.Now())%align)
		spread := churnSpread{state: 0x9e3779b97f4a7c15}
		for i := 0; i < burst; i++ {
			s.After(Millisecond+spread.next(256*Millisecond), nop)
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkEventThroughputLoaded is BenchmarkEventThroughput with 1<<18
// pending far-future timers parked in the scheduler: the cost of the hot
// near-term event chain must not scale with the number of idle timers.
// RunFor stops short of the far deadlines so only the chain is measured.
func BenchmarkEventThroughputLoaded(b *testing.B) {
	s := New()
	nop := func() {}
	spread := churnSpread{state: 0x2545f4914f6cdd1d}
	far := Duration(1000) * Second
	for i := 0; i < 1<<18; i++ {
		s.After(far+spread.next(Second), nop)
	}
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.After(Microsecond, tick)
		}
	}
	s.After(Microsecond, tick)
	b.ResetTimer()
	s.RunFor(Duration(b.N+2) * Microsecond)
	b.StopTimer()
	if n != b.N {
		b.Fatalf("chain ran %d of %d events", n, b.N)
	}
	s.Shutdown()
}

// BenchmarkSpawnKillChurn drives an open-loop spawn cycle: each iteration
// starts a short-lived worker proc that sleeps once and exits while the
// generator paces arrivals. With proc recycling the steady-state cycle
// reuses parked Proc shells and their goroutines instead of allocating.
func BenchmarkSpawnKillChurn(b *testing.B) {
	s := New()
	work := func(q *Proc) { q.Sleep(Microsecond) }
	b.ReportAllocs()
	b.ResetTimer()
	s.Spawn("gen", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			s.Spawn("w", work)
			p.Sleep(Microsecond)
		}
	})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawnKillSteadyState is the allocation gate for proc recycling
// (see make bench-allocs): after a short warmup fills the free list, the
// spawn→run→exit cycle must be allocation-free. The warmup runs before
// ResetTimer inside the generator so the measured region is pure steady
// state.
func BenchmarkSpawnKillSteadyState(b *testing.B) {
	s := New()
	work := func(q *Proc) { q.Sleep(Microsecond) }
	b.ReportAllocs()
	s.Spawn("gen", func(p *Proc) {
		for i := 0; i < 64; i++ {
			s.Spawn("w", work)
			p.Sleep(Microsecond)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Spawn("w", work)
			p.Sleep(Microsecond)
		}
	})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchQueueBurst transfers bursts of 64 elements through a bounded queue,
// one Put per element; get is the consumer's dequeue step and reports false
// once the queue is closed and drained.
func benchQueueBurst(b *testing.B, get func(p *Proc, q *Queue[int]) bool) {
	const burst = 64
	s := New()
	q := NewQueue[int](s, "burst", burst)
	rounds := b.N/burst + 1
	s.Spawn("producer", func(p *Proc) {
		for r := 0; r < rounds; r++ {
			for i := 0; i < burst; i++ {
				if err := q.Put(p, i); err != nil {
					b.Errorf("put: %v", err)
					return
				}
			}
			p.Sleep(Microsecond)
		}
		q.Close()
	})
	s.Spawn("consumer", func(p *Proc) {
		for get(p, q) {
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueueBurstBatched drains each burst with one GetN per wakeup.
func BenchmarkQueueBurstBatched(b *testing.B) {
	var dst [64]int
	benchQueueBurst(b, func(p *Proc, q *Queue[int]) bool {
		_, ok := q.GetN(p, dst[:])
		return ok
	})
}

// BenchmarkQueueBurstLoop drains one Get at a time — the per-element
// reference point for the GetN drain.
func BenchmarkQueueBurstLoop(b *testing.B) {
	benchQueueBurst(b, func(p *Proc, q *Queue[int]) bool {
		_, ok := q.Get(p)
		return ok
	})
}
