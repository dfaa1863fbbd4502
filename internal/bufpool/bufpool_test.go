package bufpool

import (
	"strings"
	"sync"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, class int
	}{
		{1, 0}, {63, 0}, {64, 0},
		{65, 1}, {128, 1},
		{129, 2},
		{1 << 24, maxShift - minShift},
		{1<<24 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestGetLenCap(t *testing.T) {
	var p Pool
	b := p.Get(100)
	if len(b) != 100 {
		t.Fatalf("len = %d, want 100", len(b))
	}
	if cap(b) != 128 {
		t.Fatalf("cap = %d, want class size 128", cap(b))
	}
	if p.Get(0) != nil {
		t.Fatal("Get(0) should be nil")
	}
}

// TestSizeClassReuse: a released buffer is handed back out for the next
// request of the same class, identical backing array.
func TestSizeClassReuse(t *testing.T) {
	var p Pool
	b := p.Get(200) // class 256
	pb := &b[0]
	p.Put(b)
	c := p.Get(256)
	if &c[0] != pb {
		t.Fatal("expected the released buffer to be reused for same class")
	}
	d := p.Get(257) // class 512: must not reuse
	if len(d) != 257 || cap(d) != 512 {
		t.Fatalf("cross-class Get wrong shape: len=%d cap=%d", len(d), cap(d))
	}
	gets, reuses, puts, drops := p.Stats()
	if gets != 3 || reuses != 1 || puts != 1 || drops != 0 {
		t.Fatalf("stats = %d/%d/%d/%d, want 3/1/1/0", gets, reuses, puts, drops)
	}
}

func TestPoisonOnRelease(t *testing.T) {
	var p Pool
	p.SetDebug(true)
	b := p.Get(64)
	for i := range b {
		b[i] = 7
	}
	p.Put(b)
	// White-box: the pooled copy must be fully poisoned.
	fl := p.free[0]
	if len(fl) != 1 {
		t.Fatalf("free list has %d buffers, want 1", len(fl))
	}
	for i, x := range fl[0] {
		if x != Poison {
			t.Fatalf("byte %d = %#x, want poison %#x", i, x, Poison)
		}
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	var p Pool
	p.SetDebug(true)
	b := p.Get(64)
	p.Put(b)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double release did not panic")
		}
		if !strings.Contains(r.(string), "double release") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	p.Put(b)
}

func TestUseAfterReleasePanics(t *testing.T) {
	var p Pool
	p.SetDebug(true)
	b := p.Get(64)
	p.Put(b)
	b[3] = 1 // write through a stale alias
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("use-after-release was not detected on next Get")
		}
		if !strings.Contains(r.(string), "modified after release") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	p.Get(64)
}

func TestLeakCheck(t *testing.T) {
	var p Pool
	p.SetDebug(true)
	a, b := p.Get(64), p.Get(4096)
	if p.Outstanding() != 2 {
		t.Fatalf("outstanding = %d, want 2", p.Outstanding())
	}
	if err := p.LeakCheck(); err == nil {
		t.Fatal("LeakCheck should report unreturned buffers")
	}
	p.Put(a)
	p.Put(b)
	if err := p.LeakCheck(); err != nil {
		t.Fatalf("LeakCheck after full return: %v", err)
	}
}

// TestSubSliceDropped: only exact class-capacity buffers may re-enter the
// pool; an interior sub-slice (capacity not a class size) is dropped to the
// GC but still counts as returned.
func TestSubSliceDropped(t *testing.T) {
	var p Pool
	p.SetDebug(true)
	b := p.Get(128)
	p.Put(b[16:32:48])
	if _, _, puts, drops := p.Stats(); puts != 1 || drops != 1 {
		t.Fatalf("puts=%d drops=%d, want 1/1", puts, drops)
	}
}

func TestOversizeFallsBack(t *testing.T) {
	var p Pool
	n := 1<<maxShift + 1
	b := p.Get(n)
	if len(b) != n {
		t.Fatalf("oversize len = %d, want %d", len(b), n)
	}
	p.Put(b)
	if _, _, _, drops := p.Stats(); drops != 1 {
		t.Fatal("oversize Put should drop to GC")
	}
}

// TestFreeListByteCap: every class's free list admits perClassCapBytes worth
// of buffers, whatever their size, and drops the next release to the GC.
func TestFreeListByteCap(t *testing.T) {
	for _, size := range []int{1 << 16, 1 << 20, 1 << maxShift} {
		var p Pool
		admit := perClassCapBytes / size
		bufs := make([][]byte, admit+1)
		for i := range bufs {
			bufs[i] = p.Get(size)
		}
		for _, b := range bufs {
			p.Put(b)
		}
		held := len(p.free[classFor(size)])
		if held != admit {
			t.Errorf("class %d: free list holds %d buffers, want %d", size, held, admit)
		}
		if held*size > perClassCapBytes {
			t.Errorf("class %d: free list holds %d bytes, budget %d", size, held*size, perClassCapBytes)
		}
		if _, _, puts, drops := p.Stats(); puts != uint64(admit+1) || drops != 1 {
			t.Errorf("class %d: puts=%d drops=%d, want %d/1", size, puts, drops, admit+1)
		}
	}
}

// TestConcurrent exercises the lock paths under the race detector (the
// parallel experiment sweeps share one pool across goroutines).
func TestConcurrent(t *testing.T) {
	var p Pool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := p.Get(64 << (g % 4))
				b[0] = byte(i)
				p.Put(b)
			}
		}(g)
	}
	wg.Wait()
	gets, _, puts, _ := p.Stats()
	if gets != 1600 || puts != 1600 {
		t.Fatalf("gets=%d puts=%d, want 1600/1600", gets, puts)
	}
}
