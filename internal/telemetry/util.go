package telemetry

import "lmas/internal/sim"

// UtilTrace aggregates resource busy intervals into fixed-width windows so
// utilization can be reported as a time series. It implements
// sim.BusyRecorder.
//
// The final window is usually partial: the run rarely ends exactly on a
// window boundary. Utilization accessors (At, Series, Mean) divide that
// window's busy time by the observed width — the span up to the last
// recorded instant — not the full window, so a fully-busy resource reports
// 1.0 to the end of the trace instead of a spurious terminal dip.
type UtilTrace struct {
	Name    string
	Window  sim.Duration
	buckets []sim.Duration // busy time per window
	last    sim.Time       // end of the latest recorded interval
}

// NewUtilTrace creates a trace with the given window width.
func NewUtilTrace(name string, window sim.Duration) *UtilTrace {
	if window <= 0 {
		panic("telemetry: utilization window must be positive")
	}
	return &UtilTrace{Name: name, Window: window}
}

// RecordBusy adds the busy interval [from, to) to the trace.
func (u *UtilTrace) RecordBusy(from, to sim.Time) {
	if to <= from {
		return
	}
	if to > u.last {
		u.last = to
	}
	first := int(from / sim.Time(u.Window))
	last := int((to - 1) / sim.Time(u.Window))
	for len(u.buckets) <= last {
		u.buckets = append(u.buckets, 0)
	}
	for b := first; b <= last; b++ {
		winStart := sim.Time(b) * sim.Time(u.Window)
		winEnd := winStart + sim.Time(u.Window)
		lo, hi := from, to
		if lo < winStart {
			lo = winStart
		}
		if hi > winEnd {
			hi = winEnd
		}
		u.buckets[b] += sim.Duration(hi - lo)
	}
}

// Len reports the number of windows with any recorded activity span.
func (u *UtilTrace) Len() int { return len(u.buckets) }

// End reports the end of the latest recorded busy interval — the instant the
// trace is considered observed up to.
func (u *UtilTrace) End() sim.Time { return u.last }

// width reports the observed width of window i: the full Window for interior
// windows, and the span up to the last recorded instant for the final,
// possibly partial one.
func (u *UtilTrace) width(i int) sim.Duration {
	winStart := sim.Time(i) * sim.Time(u.Window)
	if w := sim.Duration(u.last - winStart); w > 0 && w < u.Window {
		return w
	}
	return u.Window
}

// At reports the utilization (0..1) of window i; the final partial window is
// pro-rated to its observed width.
func (u *UtilTrace) At(i int) float64 {
	if i < 0 || i >= len(u.buckets) {
		return 0
	}
	return float64(u.buckets[i]) / float64(u.width(i))
}

// Series returns (time-in-seconds, utilization) points, one per window,
// timestamped at the window's end (the last recorded instant for the final
// partial window).
func (u *UtilTrace) Series() (ts, util []float64) {
	ts = make([]float64, len(u.buckets))
	util = make([]float64, len(u.buckets))
	for i := range u.buckets {
		winStart := sim.Duration(i) * u.Window
		ts[i] = (winStart + u.width(i)).Seconds()
		util[i] = u.At(i)
	}
	return ts, util
}

// Mean reports the average utilization over windows [0, n); n <= 0 means all
// recorded windows. The final partial window contributes its observed width,
// so a fully-busy trace has mean 1.0 regardless of where the run ends.
func (u *UtilTrace) Mean(n int) float64 {
	if n <= 0 || n > len(u.buckets) {
		n = len(u.buckets)
	}
	if n == 0 {
		return 0
	}
	var total, span sim.Duration
	for i, b := range u.buckets[:n] {
		total += b
		span += u.width(i)
	}
	return float64(total) / float64(span)
}

// Report renders the trace in report form; a nil or empty trace reports nil.
func (u *UtilTrace) Report() *UtilSeries {
	if u == nil || u.Len() == 0 {
		return nil
	}
	ts, util := u.Series()
	s := &UtilSeries{
		WindowSec: u.Window.Seconds(),
		Mean:      round6(u.Mean(0)),
		TS:        make([]float64, len(ts)),
		Util:      make([]float64, len(util)),
	}
	for i := range ts {
		s.TS[i] = round6(ts[i])
		s.Util[i] = round6(util[i])
	}
	return s
}

var _ sim.BusyRecorder = (*UtilTrace)(nil)
