package telemetry

import (
	"math"
	"testing"
	"testing/quick"

	"lmas/internal/sim"
)

func TestUtilTraceSingleWindow(t *testing.T) {
	u := NewUtilTrace("cpu", sim.Second)
	// Busy for the whole observed span [0, 0.5s): the trace ends mid-window,
	// so the partial window is pro-rated and utilization is 1.0.
	u.RecordBusy(0, sim.Time(sim.Second/2))
	if got := u.At(0); got != 1.0 {
		t.Fatalf("At(0) = %v, want 1.0", got)
	}
	if got := u.End(); got != sim.Time(sim.Second/2) {
		t.Fatalf("End = %v", got)
	}
}

func TestUtilTraceSpanningWindows(t *testing.T) {
	u := NewUtilTrace("cpu", sim.Second)
	// Busy from 0.5s to 2.5s: half of window 0, all of window 1, and all of
	// window 2's observed half before the trace ends.
	u.RecordBusy(sim.Time(500*sim.Millisecond), sim.Time(2500*sim.Millisecond))
	want := []float64{0.5, 1.0, 1.0}
	for i, w := range want {
		if got := u.At(i); math.Abs(got-w) > 1e-9 {
			t.Fatalf("At(%d) = %v, want %v", i, got, w)
		}
	}
	if u.Len() != 3 {
		t.Fatalf("Len = %d", u.Len())
	}
}

func TestUtilTraceAccumulates(t *testing.T) {
	u := NewUtilTrace("cpu", sim.Second)
	// 0.5s busy over the observed span [0, 0.75s).
	u.RecordBusy(0, sim.Time(250*sim.Millisecond))
	u.RecordBusy(sim.Time(500*sim.Millisecond), sim.Time(750*sim.Millisecond))
	if got := u.At(0); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Fatalf("At(0) = %v, want 2/3", got)
	}
}

// TestUtilTraceFinalPartialWindow is the regression test for the pro-rating
// bug: a resource busy to the very end of the run used to report a spurious
// utilization dip in the final partial window (busy/Window instead of
// busy/observed-width).
func TestUtilTraceFinalPartialWindow(t *testing.T) {
	u := NewUtilTrace("cpu", sim.Second)
	u.RecordBusy(0, sim.Time(1500*sim.Millisecond)) // run ends mid-window 1
	if got := u.At(1); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("At(1) = %v, want 1.0 (pro-rated partial window)", got)
	}
	if got := u.Mean(0); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("Mean = %v, want 1.0", got)
	}
	ts, util := u.Series()
	wantTS := []float64{1.0, 1.5} // final point stamped at the trace end
	for i := range wantTS {
		if math.Abs(ts[i]-wantTS[i]) > 1e-9 || math.Abs(util[i]-1.0) > 1e-9 {
			t.Fatalf("Series = %v %v, want ts %v, util all 1.0", ts, util, wantTS)
		}
	}
}

func TestUtilTraceEmptyAndOutOfRange(t *testing.T) {
	u := NewUtilTrace("cpu", sim.Second)
	if u.At(0) != 0 || u.At(-1) != 0 || u.At(100) != 0 {
		t.Fatal("empty trace must report zero everywhere")
	}
	u.RecordBusy(5, 5) // zero-length interval ignored
	if u.Len() != 0 {
		t.Fatal("zero-length interval recorded")
	}
}

func TestUtilTraceMean(t *testing.T) {
	u := NewUtilTrace("cpu", sim.Second)
	u.RecordBusy(0, sim.Time(sim.Second))                      // window 0: 1.0
	u.RecordBusy(sim.Time(sim.Second), sim.Time(3*sim.Second)) // windows 1,2: 1.0 each... adjust
	if got := u.Mean(0); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("Mean = %v, want 1.0", got)
	}
	u2 := NewUtilTrace("cpu", sim.Second)
	u2.RecordBusy(0, sim.Time(sim.Second/2))
	u2.RecordBusy(sim.Time(sim.Second), sim.Time(2*sim.Second))
	if got := u2.Mean(2); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("Mean(2) = %v, want 0.75", got)
	}
}

// TestUtilTraceConservation: total recorded busy time equals the sum over
// windows, for arbitrary disjoint intervals.
func TestUtilTraceConservation(t *testing.T) {
	f := func(spans []uint16) bool {
		u := NewUtilTrace("x", 100*sim.Microsecond)
		var cursor sim.Time
		var total sim.Duration
		for _, s := range spans {
			d := sim.Duration(s%1000) * sim.Microsecond
			u.RecordBusy(cursor, cursor.Add(d))
			total += d
			cursor = cursor.Add(d + 37*sim.Microsecond)
		}
		var got sim.Duration
		for i := 0; i < u.Len(); i++ {
			// Reconstruct each window's busy time from its utilization and
			// observed width (the final window is pro-rated).
			w := 100 * sim.Microsecond
			if rem := sim.Duration(u.End()) - sim.Duration(i)*w; rem > 0 && rem < w {
				w = rem
			}
			got += sim.Duration(u.At(i) * float64(w))
		}
		diff := got - total
		if diff < 0 {
			diff = -diff
		}
		return diff <= sim.Duration(u.Len()+1) // rounding slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilTraceSeries(t *testing.T) {
	u := NewUtilTrace("cpu", 500*sim.Millisecond)
	u.RecordBusy(0, sim.Time(250*sim.Millisecond))
	ts, util := u.Series()
	if len(ts) != 1 || len(util) != 1 {
		t.Fatalf("series lengths %d/%d", len(ts), len(util))
	}
	// The lone window is partial: stamped at the trace end, fully busy.
	if ts[0] != 0.25 || util[0] != 1.0 {
		t.Fatalf("series = %v %v", ts, util)
	}
}

func TestNewUtilTraceBadWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero window")
		}
	}()
	NewUtilTrace("x", 0)
}
