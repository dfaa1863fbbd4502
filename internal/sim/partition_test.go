package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"lmas/internal/trace"
)

// TestSameInstantOrderAcrossPartitions: events at one instant dispatch in
// ascending partition order regardless of spawn order, including partitions
// past the first 64-bit word of the active bitmap.
func TestSameInstantOrderAcrossPartitions(t *testing.T) {
	s := New()
	const n = 70
	parts := make([]int, n)
	for i := range parts {
		parts[i] = s.AddPartition()
	}
	if parts[n-1] != n {
		t.Fatalf("last of %d added partitions is %d, want %d (0 is the global one)", n, parts[n-1], n)
	}
	var order []int
	// Spawn in reverse partition order: dispatch order must not follow it.
	for i := n - 1; i >= 0; i-- {
		part := parts[i]
		s.SpawnOn(part, fmt.Sprintf("p%d", part), func(p *Proc) {
			if p.Partition() != part {
				t.Errorf("proc on partition %d, want %d", p.Partition(), part)
			}
			order = append(order, part)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("ran %d procs, want %d", len(order), n)
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("same-instant dispatch order %v not ascending by partition", order)
		}
	}
}

// randomTopology runs a seeded random mesh of pinned producers and consumers
// exchanging tokens through bounded queues and contending for per-node
// resources. It returns the ordered event log and the final virtual time —
// the observables two runs of one seed must agree on.
func randomTopology(t *testing.T, seed int64) ([]string, Time) {
	t.Helper()
	s := New()
	rng := rand.New(rand.NewSource(seed))
	nodes := 2 + rng.Intn(4)
	parts := make([]int, nodes)
	qs := make([]*Queue[int], nodes)
	rs := make([]*Resource, nodes)
	for i := 0; i < nodes; i++ {
		parts[i] = s.AddPartition()
		qs[i] = NewQueue[int](s, fmt.Sprintf("q%d", i), 1+rng.Intn(3))
		rs[i] = NewResource(s, fmt.Sprintf("r%d", i))
	}
	var log []string
	record := func(p *Proc, what string) {
		log = append(log, fmt.Sprintf("%d %s %s", p.Now(), p.Name(), what))
	}
	for i := 0; i < nodes; i++ {
		i := i
		n := 5 + rng.Intn(10)
		// Pre-draw the random delays so rng consumption order cannot
		// depend on scheduling (it would not anyway — dispatch is
		// deterministic — but the test should not assume what it checks).
		delays := make([]Duration, n)
		for j := range delays {
			delays[j] = Duration(rng.Intn(900)+1) * Microsecond
		}
		s.SpawnOn(parts[i], fmt.Sprintf("prod%d", i), func(p *Proc) {
			for j := 0; j < n; j++ {
				p.Sleep(delays[j])
				rs[i].Use(p, 100*Microsecond)
				if err := qs[i].Put(p, j); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				record(p, fmt.Sprintf("put%d", j))
				p.Sleep(50 * Microsecond)
			}
			qs[i].Close()
		})
		next := (i + 1) % nodes
		s.SpawnOn(parts[next], fmt.Sprintf("cons%d", i), func(p *Proc) {
			for {
				v, ok := qs[i].Get(p)
				if !ok {
					record(p, "done")
					return
				}
				rs[next].Use(p, 200*Microsecond)
				record(p, fmt.Sprintf("got%d", v))
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return log, s.Now()
}

// TestRandomTopologyDeterministic is the randomized determinism property
// test: for a sweep of seeded random topologies of pinned procs, two runs of
// the same seed must produce identical event logs and final times.
func TestRandomTopologyDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		refLog, refEnd := randomTopology(t, seed)
		if len(refLog) == 0 {
			t.Fatalf("seed %d: empty reference log", seed)
		}
		log, end := randomTopology(t, seed)
		if end != refEnd {
			t.Fatalf("seed %d: second run ended at %v, first at %v", seed, end, refEnd)
		}
		if len(log) != len(refLog) {
			t.Fatalf("seed %d: second run logged %d events, first %d", seed, len(log), len(refLog))
		}
		for i := range log {
			if log[i] != refLog[i] {
				t.Fatalf("seed %d: event %d = %q, first run %q", seed, i, log[i], refLog[i])
			}
		}
	}
}

// TestTraceAttachNeutral: attaching a tracer records events without moving
// virtual time — the traced run ends at the untraced run's instant.
func TestTraceAttachNeutral(t *testing.T) {
	run := func(traced bool) (int, Time) {
		s := New()
		var sink *trace.Sink
		if traced {
			sink = trace.New()
			s.SetTracer(sink)
		}
		r := NewResource(s, "cpu")
		q := NewQueue[int](s, "q", 2)
		s.SpawnOn(s.AddPartition(), "producer", func(p *Proc) {
			for i := 0; i < 10; i++ {
				r.Use(p, Millisecond)
				if err := q.Put(p, 2*i); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
			q.Close()
		})
		s.SpawnOn(s.AddPartition(), "consumer", func(p *Proc) {
			for {
				if _, ok := q.Get(p); !ok {
					return
				}
				p.Sleep(2 * Millisecond)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if !traced {
			return 0, s.Now()
		}
		return sink.Events(), s.Now()
	}
	_, bareEnd := run(false)
	events, end := run(true)
	if events == 0 {
		t.Fatal("traced run recorded no events")
	}
	if end != bareEnd {
		t.Fatalf("traced run ended at %v, untraced at %v", end, bareEnd)
	}
}
