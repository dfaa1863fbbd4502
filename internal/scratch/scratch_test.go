package scratch

import (
	"sync"
	"testing"
)

type big struct {
	buf []int
}

func TestGetPutReuses(t *testing.T) {
	var p Pool[big]
	v := p.Get()
	v.buf = make([]int, 100)
	p.Put(v)
	got := p.Get()
	if got != v {
		t.Fatalf("Get did not reuse the pooled item")
	}
	if cap(got.buf) != 100 {
		t.Fatalf("pooled item lost its scratch: cap=%d", cap(got.buf))
	}
}

func TestPutNilIsNoop(t *testing.T) {
	var p Pool[big]
	p.Put(nil)
	if n := p.Pooled(); n != 0 {
		t.Fatalf("nil Put parked something: %d", n)
	}
}

func TestPutBounded(t *testing.T) {
	var p Pool[big]
	for i := 0; i < poolCap+500; i++ {
		p.Put(new(big))
	}
	if got := p.Pooled(); got != poolCap {
		t.Fatalf("pool retains %d items, cap is %d", got, poolCap)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	// The -j sweep workers share these pools: hammer one from several
	// goroutines under the race detector.
	var p Pool[big]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v := p.Get()
				if v.buf == nil {
					v.buf = make([]int, 16)
				}
				v.buf[0] = i
				p.Put(v)
			}
		}()
	}
	wg.Wait()
}

func TestGrow(t *testing.T) {
	sl := make([]int, 4, 16)
	grown := Grow(sl, 10)
	if len(grown) != 10 || cap(grown) != 16 {
		t.Fatalf("Grow within cap reallocated: len=%d cap=%d", len(grown), cap(grown))
	}
	grown2 := Grow(sl, 100)
	if len(grown2) != 100 {
		t.Fatalf("Grow beyond cap: len=%d", len(grown2))
	}
}
