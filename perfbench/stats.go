package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the percentiles a timing may be reported at, from
// the median up. A percentile is reportable only when at least
// minBeyond samples lie beyond it.
var tailPercentiles = []float64{50, 90, 99, 99.9}

const minBeyond = 10

// percentile returns the p-th percentile (0–100) of sorted samples by
// linear interpolation between closest ranks; 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n == 1:
		return sorted[0]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// beyond is the number of samples, out of n, that lie above the p-th
// percentile.
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
}

// tailPercentile returns the highest percentile of tailPercentiles that
// has at least minBeyond of n samples beyond it, and false when even the
// median has fewer.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// samples is a sample of timings or sizes.
type samples struct{ v []float64 }

func (d *samples) add(x float64)           { d.v = append(d.v, x) }
func (d *samples) addDur(x time.Duration)  { d.v = append(d.v, float64(x)) }
func (d *samples) n() int                  { return len(d.v) }
func (d *samples) sorted() []float64       { s := append([]float64(nil), d.v...); sort.Float64s(s); return s }
func (d *samples) pct(p float64) float64   { return percentile(d.sorted(), p) }
func (d *samples) median() float64         { return d.pct(50) }
func (d *samples) pctMS(p float64) float64 { return d.pct(p) / 1e6 }
func (d *samples) pctUS(p float64) float64 { return d.pct(p) / 1e3 }
func (d *samples) sum() (s float64) {
	for _, x := range d.v {
		s += x
	}
	return s
}

// ratio is a share with its base kept beside it, so a printed ratio always
// says what it was divided by. A zero base gives a zero ratio.
type ratio struct {
	num, base float64
}

func (r ratio) value() float64 {
	if r.base == 0 {
		return 0
	}
	return r.num / r.base
}

// windows splits the samples of a phase into equal windows by the time each
// was taken, so a figure can be reported as the median of its per-window
// values: interference that lasts part of a phase then moves a window or
// two, not the result.
type windows struct {
	span time.Duration
	w    []samples
}

func newWindows(span time.Duration, n int) *windows {
	return &windows{span: span, w: make([]samples, n)}
}

// add records v taken at offset at into the phase; samples past the span
// count in the last window.
func (ws *windows) add(at time.Duration, v float64) {
	i := int(float64(at) / float64(ws.span) * float64(len(ws.w)))
	ws.w[min(max(i, 0), len(ws.w)-1)].add(v)
}

// pct is the median, over the non-empty windows, of each window's p-th
// percentile.
func (ws *windows) pct(p float64) float64 {
	var m samples
	for i := range ws.w {
		if ws.w[i].n() > 0 {
			m.add(ws.w[i].pct(p))
		}
	}
	return m.median()
}

// rate is the median, over all windows, of the window's sum per second.
func (ws *windows) rate() float64 {
	var m samples
	per := ws.span.Seconds() / float64(len(ws.w))
	for i := range ws.w {
		m.add(ws.w[i].sum() / per)
	}
	return m.median()
}
