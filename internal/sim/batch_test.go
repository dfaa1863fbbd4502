package sim

import (
	"fmt"
	"testing"
)

// TestGetNMatchesGetLoop: a GetN-draining consumer must observe the same
// elements at the same instants, and leave the same wait stats, as a
// consumer issuing one non-blocking Get per buffered element.
func TestGetNMatchesGetLoop(t *testing.T) {
	run := func(batched bool) (log []string, cum Duration, high int) {
		s := New()
		q := NewQueue[int](s, "q", 32)
		s.Spawn("producer", func(p *Proc) {
			v := 0
			for burst := 0; burst < 8; burst++ {
				for i := 0; i < 5; i++ {
					if err := q.Put(p, v); err != nil {
						t.Errorf("put: %v", err)
					}
					v++
				}
				p.Sleep(10 * Microsecond)
			}
			q.Close()
		})
		s.Spawn("consumer", func(p *Proc) {
			if batched {
				dst := make([]int, 32)
				for {
					k, ok := q.GetN(p, dst)
					if !ok {
						return
					}
					for _, v := range dst[:k] {
						log = append(log, fmt.Sprintf("%d@%d", v, s.Now()))
					}
				}
			} else {
				for {
					v, ok := q.Get(p)
					if !ok {
						return
					}
					log = append(log, fmt.Sprintf("%d@%d", v, s.Now()))
				}
			}
		})
		if err := s.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		cum, high = q.WaitStats()
		log = append(log, fmt.Sprintf("end@%d", s.Now()))
		return
	}
	loopLog, loopCum, loopHigh := run(false)
	batchLog, batchCum, batchHigh := run(true)
	if fmt.Sprint(loopLog) != fmt.Sprint(batchLog) {
		t.Errorf("logs differ:\nloop:  %v\nbatch: %v", loopLog, batchLog)
	}
	if loopCum != batchCum || loopHigh != batchHigh {
		t.Errorf("wait stats loop (%d, %d) vs batch (%d, %d)", loopCum, loopHigh, batchCum, batchHigh)
	}
}

// TestProcRecycling pins the free-list contract: sequential short-lived
// procs inside one run reuse pooled shells, the pool drains when Run
// returns, and neither killed procs nor profiled sims recycle.
func TestProcRecycling(t *testing.T) {
	s := New()
	s.Spawn("gen", func(p *Proc) {
		for i := 0; i < 10; i++ {
			s.Spawn("w", func(q *Proc) { q.Sleep(Microsecond) })
			p.Sleep(2 * Microsecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st := s.SchedStats(); st.ProcReuses < 8 {
		t.Errorf("proc reuses = %d, want >= 8", st.ProcReuses)
	}
	if len(s.freeProcs) != 0 {
		t.Errorf("pool holds %d shells after Run, want 0 (drained)", len(s.freeProcs))
	}

	// Killed procs never pool: their queued wakeup may still reference the
	// pointer. Shutdown kills the blocked procs one at a time, and each
	// one's deferred call sees the pool as its predecessors left it.
	s2 := New()
	var pooledAtKill []int
	for i := 0; i < 3; i++ {
		s2.Spawn("blocked", func(p *Proc) {
			defer func() { pooledAtKill = append(pooledAtKill, len(s2.freeProcs)) }()
			p.Sleep(Second)
		})
	}
	s2.RunFor(Microsecond)
	s2.Shutdown()
	if fmt.Sprint(pooledAtKill) != "[0 0 0]" {
		t.Errorf("pool size as each proc was killed = %v, want [0 0 0]", pooledAtKill)
	}
	if len(s2.freeProcs) != 0 {
		t.Errorf("pool holds %d shells after Shutdown, want 0 (drained)", len(s2.freeProcs))
	}
	if st := s2.SchedStats(); st.ProcReuses != 0 {
		t.Errorf("kill path counted %d reuses", st.ProcReuses)
	}

	// Profiled sims never pool: critpath keys per-proc state by pointer.
	s4 := New()
	s4.SetProfiler(nopProfiler{})
	s4.Spawn("gen", func(p *Proc) {
		for i := 0; i < 5; i++ {
			s4.Spawn("w", func(q *Proc) { q.Sleep(Microsecond) })
			p.Sleep(2 * Microsecond)
		}
	})
	if err := s4.Run(); err != nil {
		t.Fatal(err)
	}
	if st := s4.SchedStats(); st.ProcReuses != 0 {
		t.Errorf("profiled sim reused %d shells, want 0", st.ProcReuses)
	}
}

type nopProfiler struct{}

func (nopProfiler) Charge(p *Proc, kind ChargeKind, res string, from, to Time) {}
