package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"lmas/internal/bte"
	"lmas/internal/cluster"
	"lmas/internal/sim"
)

// drive runs fn in a proc on a default cluster's first host with a memory
// engine and fails the test on sim error.
func drive(t *testing.T, memItems int, fn func(p *sim.Proc, q *PQ)) {
	t.Helper()
	cl := cluster.New(cluster.DefaultParams())
	q := New(cl, cl.Hosts[0], bte.NewMemory(), memItems)
	cl.Sim.Spawn("pq", func(p *sim.Proc) { fn(p, q) })
	if err := cl.Sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPushPopSorted(t *testing.T) {
	drive(t, 4, func(p *sim.Proc, q *PQ) {
		keys := []uint64{9, 3, 7, 1, 8, 2, 6, 4, 5, 0}
		for _, k := range keys {
			q.Push(p, Item{Key: k, Payload: k * 10})
		}
		if q.Len() != len(keys) {
			t.Errorf("Len = %d", q.Len())
		}
		for want := uint64(0); want < 10; want++ {
			it, ok := q.PopMin(p)
			if !ok || it.Key != want || it.Payload != want*10 {
				t.Fatalf("pop %d: got %+v ok=%v", want, it, ok)
			}
		}
		if _, ok := q.PopMin(p); ok {
			t.Error("pop from empty succeeded")
		}
	})
}

func TestSpillsWhenBufferFull(t *testing.T) {
	drive(t, 4, func(p *sim.Proc, q *PQ) {
		for i := 0; i < 20; i++ {
			q.Push(p, Item{Key: uint64(i)})
		}
		if q.Spills() == 0 {
			t.Error("no spills despite tiny buffer")
		}
	})
}

func TestInterleavedPushPop(t *testing.T) {
	drive(t, 8, func(p *sim.Proc, q *PQ) {
		rng := rand.New(rand.NewSource(1))
		var ref []uint64
		push := func(k uint64) {
			q.Push(p, Item{Key: k})
			ref = append(ref, k)
		}
		pop := func() {
			it, ok := q.PopMin(p)
			if !ok {
				if len(ref) != 0 {
					t.Fatal("queue empty, reference not")
				}
				return
			}
			sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
			if it.Key != ref[0] {
				t.Fatalf("popped %d, want %d", it.Key, ref[0])
			}
			ref = ref[1:]
		}
		for i := 0; i < 500; i++ {
			if rng.Intn(3) == 0 {
				pop()
			} else {
				push(uint64(rng.Intn(1000)))
			}
		}
		for len(ref) > 0 {
			pop()
		}
	})
}

func TestDuplicateKeysOrderedByPayload(t *testing.T) {
	drive(t, 3, func(p *sim.Proc, q *PQ) {
		q.Push(p, Item{Key: 5, Payload: 2})
		q.Push(p, Item{Key: 5, Payload: 1})
		q.Push(p, Item{Key: 5, Payload: 3})
		for want := uint64(1); want <= 3; want++ {
			it, _ := q.PopMin(p)
			if it.Payload != want {
				t.Fatalf("payload %d, want %d", it.Payload, want)
			}
		}
	})
}

// The queue itself is a plain min-queue: a key below the last one popped is
// popped next. Time-forward order is its caller's invariant to check.
func TestNonStrictAllowsRegression(t *testing.T) {
	drive(t, 4, func(p *sim.Proc, q *PQ) {
		q.Push(p, Item{Key: 10})
		q.PopMin(p)
		q.Push(p, Item{Key: 5})
		if it, ok := q.PopMin(p); !ok || it.Key != 5 {
			t.Errorf("got %+v ok=%v", it, ok)
		}
	})
}

func TestDiskChargedForSpills(t *testing.T) {
	cl := cluster.New(cluster.DefaultParams())
	asu := cl.ASUs[0]
	eng := bte.NewDisk(asu.Disk)
	q := New(cl, cl.Hosts[0], eng, 64)
	cl.Sim.Spawn("pq", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			q.Push(p, Item{Key: uint64(i)})
		}
		for {
			if _, ok := q.PopMin(p); !ok {
				break
			}
		}
		eng.Flush(p)
	})
	if err := cl.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	_, writes, _, wb := asu.Disk.Stats()
	if writes == 0 || wb == 0 {
		t.Fatal("spills charged no disk writes")
	}
	if q.Spills() == 0 {
		t.Fatal("expected spills")
	}
}

func TestEmptyBehaviour(t *testing.T) {
	drive(t, 2, func(p *sim.Proc, q *PQ) {
		if _, ok := q.PopMin(p); ok {
			t.Error("empty pop succeeded")
		}
		if q.Len() != 0 {
			t.Error("empty Len != 0")
		}
	})
}

func TestBadMemPanics(t *testing.T) {
	cl := cluster.New(cluster.DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(cl, cl.Hosts[0], bte.NewMemory(), 1)
}

// TestHeapProperty: the queue returns any multiset of keys in sorted order
// for arbitrary buffer sizes.
func TestHeapProperty(t *testing.T) {
	f := func(keys []uint16, memRaw uint8) bool {
		mem := int(memRaw%30) + 2
		ok := true
		drive(t, mem, func(p *sim.Proc, q *PQ) {
			for _, k := range keys {
				q.Push(p, Item{Key: uint64(k)})
			}
			want := append([]uint16(nil), keys...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for _, w := range want {
				it, more := q.PopMin(p)
				if !more || it.Key != uint64(w) {
					ok = false
					return
				}
			}
			if _, more := q.PopMin(p); more {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
