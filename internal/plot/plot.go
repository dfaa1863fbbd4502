// Package plot holds the shared SVG plotting vocabulary used by every chart
// the toolchain emits — lmasreport's utilization and attribution plots and
// the recorder's live dashboard. Geometry, the ink palette, and the fixed
// categorical series order live here once, so a color or margin change lands
// in every output, and so the charts stay visually consistent: categorical
// slots are assigned to entities in fixed order (color follows the entity),
// series draw as 2px lines over a recessive grid, and identity never rides
// on color alone (every series is also direct-labeled or legended).
//
// The text side of the same job lives here too: Table (table.go) is the
// column-aligned results table every experiment harness and report command
// prints.
package plot

import (
	"fmt"
	"strings"
)

// Canvas geometry shared by the standard 800x420 chart frame.
const (
	W, H                   = 800, 420
	PadL, PadR, PadT, PadB = 60, 150, 44, 48
)

// Ink palette: a warm paper surface with near-black primary ink and
// progressively recessive grays for secondary text, labels, and grid.
const (
	InkSurface  = "#fcfcfb"
	InkPrimary  = "#0b0b0b"
	InkSecond   = "#52514e"
	InkMuted    = "#898781"
	InkGrid     = "#e1e0d9"
	InkBaseline = "#c3c2b7"
)

// SeriesColors is the fixed categorical order; series beyond the eighth are
// dropped with an explicit note, never recolored.
var SeriesColors = []string{
	"#2a78d6", "#eb6834", "#1baf7a", "#eda100",
	"#e87ba4", "#008300", "#4a3aa7", "#e34948",
}

// Clamp01 bounds v to [0, 1].
func Clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Open writes the SVG root element and the surface rectangle for a w x h
// canvas. Close the document with Close.
func Open(b *strings.Builder, w, h int) {
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="system-ui, -apple-system, 'Segoe UI', sans-serif">`+"\n",
		w, h, w, h)
	fmt.Fprintf(b, `<rect width="%d" height="%d" fill="%s"/>`+"\n", w, h, InkSurface)
}

// Close terminates the SVG document.
func Close(b *strings.Builder) { b.WriteString("</svg>\n") }

// Title writes the chart title in primary ink at the standard position.
func Title(b *strings.Builder, text string) {
	fmt.Fprintf(b, `<text x="%d" y="24" font-size="15" fill="%s">%s</text>`+"\n",
		PadL, InkPrimary, text)
}

// LegendLine writes one legend row with a 12x3 line swatch (for line series).
func LegendLine(b *strings.Builder, x, y int, color, label string) {
	fmt.Fprintf(b, `<rect x="%d" y="%d" width="12" height="3" fill="%s"/>`+"\n", x, y, color)
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="11" fill="%s">%s</text>`+"\n", x+18, y+5, InkSecond, label)
}

// LegendSwatch writes one legend row with a 12x12 box swatch (for filled
// segments such as stacked bars).
func LegendSwatch(b *strings.Builder, x, y int, color, label string) {
	fmt.Fprintf(b, `<rect x="%d" y="%d" width="12" height="12" fill="%s"/>`+"\n", x, y, color)
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="11" fill="%s">%s</text>`+"\n", x+18, y+10, InkSecond, label)
}

// Sparkline draws vals as a compact polyline filling the (x, y, w, h) box,
// values scaled to the observed min/max (a flat series draws mid-height),
// with a dot marking the final value. Points are evenly spaced; a single
// value draws only the dot.
func Sparkline(b *strings.Builder, x, y, w, h int, vals []float64, color string) {
	if len(vals) == 0 {
		return
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	px := func(i int) float64 {
		if len(vals) == 1 {
			return float64(x + w)
		}
		return float64(x) + float64(i)*float64(w)/float64(len(vals)-1)
	}
	py := func(v float64) float64 {
		if hi == lo {
			return float64(y) + float64(h)/2
		}
		return float64(y+h) - (v-lo)/(hi-lo)*float64(h)
	}
	if len(vals) > 1 {
		var pts strings.Builder
		for i, v := range vals {
			if i > 0 {
				pts.WriteByte(' ')
			}
			fmt.Fprintf(&pts, "%.1f,%.1f", px(i), py(v))
		}
		fmt.Fprintf(b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			pts.String(), color)
	}
	last := len(vals) - 1
	fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n", px(last), py(vals[last]), color)
}
