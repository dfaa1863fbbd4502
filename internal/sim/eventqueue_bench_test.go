package sim

import "testing"

// BenchmarkEventQueueMix answers "does the timer wheel earn its 351 lines?"
// with one body per schedule and two queues under it: the wheel-fronted heap
// every Sim uses, and the single reference heap that disableWheel selects.
// Dispatch order is identical on both (TestWheelMatchesReferenceHeap); only
// host time and allocation differ. One op is one whole schedule, so ns/op
// compares directly across the two queues. EXPERIMENTS.md TAB-COROUTINE
// records the numbers and the decision, TAB-CHURN (wheel storage) the rows
// for chunked buckets.
func BenchmarkEventQueueMix(b *testing.B) {
	queues := []struct {
		name     string
		heapOnly bool
	}{{"wheel", false}, {"heap", true}}
	mixes := []struct {
		name  string
		build func(s *Sim)
	}{{"openloop", openloopMix}, {"dsmsort", dsmsortMix}}
	for _, q := range queues {
		for _, m := range mixes {
			b.Run(q.name+"/"+m.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s := New()
					s.disableWheel = q.heapOnly
					m.build(s)
					if err := s.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// openloopMix is the asulab openloop schedule reduced to its kernel calls:
// 20k open-loop arrivals at 5k/s, each arming a 20-rung ladder of far
// deadline probes (2 s apart; 389 936 held by the wheel at the peak) and
// spawning a short-lived job proc that hops host CPU -> network -> a bounded
// queue, which one server drains in GetN batches.
func openloopMix(s *Sim) {
	const (
		jobs      = 20000
		deadlines = 20
		timeout   = 2 * Second
	)
	q := NewQueue[int](s, "jobs", 256)
	probe := func() {}
	delivered := 0
	job := func(p *Proc) {
		p.Sleep(20 * Microsecond) // host compute
		p.Sleep(10 * Microsecond) // network hop
		if err := q.Put(p, 0); err != nil {
			panic(err)
		}
		delivered++
	}
	s.Spawn("generator", func(p *Proc) {
		spread := churnSpread{state: 0x9e3779b97f4a7c15}
		for i := 0; i < jobs; i++ {
			for d := 1; d <= deadlines; d++ {
				s.After(Duration(d)*timeout, probe)
			}
			s.Spawn("job", job)
			p.Sleep(spread.next(400 * Microsecond))
		}
		for delivered < jobs {
			p.Sleep(Millisecond)
		}
		q.Close()
	})
	s.Spawn("server", func(p *Proc) {
		var batch [64]int
		for {
			n, ok := q.GetN(p, batch[:])
			if !ok {
				return
			}
			for range batch[:n] {
				p.Sleep(50 * Microsecond) // ASU compute
				p.Sleep(40 * Microsecond) // sequential disk read
			}
		}
	})
}

// dsmsortMix is a sort pass reduced to its kernel calls: eight ASU procs
// each push 6k packets through disk, CPU and link resources into a bounded
// queue that one host proc drains. Every hold is well under the wheel's
// ~1 ms near threshold except an occasional long seek, so — like the real
// sorts, which arm ~220 far timers per run — almost nothing reaches the wheel.
func dsmsortMix(s *Sim) {
	const (
		asus    = 8
		packets = 6000
	)
	q := NewQueue[int](s, "to-host", 4)
	hostCPU := NewResource(s, "host.cpu")
	link := NewResource(s, "host.nic")
	running := asus
	for a := 0; a < asus; a++ {
		disk := NewResource(s, "asu.disk")
		cpu := NewResource(s, "asu.cpu")
		spread := churnSpread{state: uint64(a) + 1}
		s.Spawn("asu", func(p *Proc) {
			for i := 0; i < packets; i++ {
				if i%256 == 255 {
					disk.Use(p, 8*Millisecond) // seek: the rare far timer
				}
				disk.Use(p, 60*Microsecond+spread.next(40*Microsecond))
				cpu.Use(p, 20*Microsecond)
				link.Use(p, 10*Microsecond)
				if err := q.Put(p, i); err != nil {
					panic(err)
				}
			}
			if running--; running == 0 {
				q.Close()
			}
		})
	}
	s.Spawn("host", func(p *Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
			hostCPU.Use(p, 8*Microsecond)
		}
	})
}
