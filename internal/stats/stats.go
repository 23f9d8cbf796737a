// Package stats provides the small statistical toolkit shared by the
// experiments: integer histograms (temporal-resolution figures), series
// (vruntime progressions, sweeps), quantiles, majority voting (AES key
// recovery) and accuracy metrics (trace-recovery scoring).
package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// HistMaxValue is the largest tracked bucket; larger observations clamp to
// it (they still count toward totals and quantiles).
const HistMaxValue = 1 << 16

// Hist is a histogram over small non-negative integers, used for
// "instructions retired per preemption" distributions (Figures 4.3 and 4.7).
type Hist struct {
	counts []int64
	total  int64
}

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{} }

// clampValue bounds v into [0, HistMaxValue].
func clampValue(v int) int {
	if v < 0 {
		return 0
	}
	if v > HistMaxValue {
		return HistMaxValue
	}
	return v
}

// Add records one observation of value v (clamped into the tracked range).
func (h *Hist) Add(v int) { h.AddN(v, 1) }

// AddN records n observations of value v.
func (h *Hist) AddN(v int, n int64) {
	v = clampValue(v)
	if v >= len(h.counts) {
		grown := make([]int64, v+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[v] += n
	h.total += n
}

// Count returns the number of observations equal to v.
func (h *Hist) Count(v int) int64 {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// Total returns the number of observations.
func (h *Hist) Total() int64 { return h.total }

// Max returns the largest observed value, or -1 if empty.
func (h *Hist) Max() int {
	for v := len(h.counts) - 1; v >= 0; v-- {
		if h.counts[v] > 0 {
			return v
		}
	}
	return -1
}

// Frac returns the fraction of observations equal to v.
func (h *Hist) Frac(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}

// FracAtMost returns the fraction of observations with value <= v.
func (h *Hist) FracAtMost(v int) float64 {
	if h.total == 0 {
		return 0
	}
	var c int64
	for i := 0; i <= v && i < len(h.counts); i++ {
		c += h.counts[i]
	}
	return float64(c) / float64(h.total)
}

// Mean returns the arithmetic mean of the observations.
func (h *Hist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for v, c := range h.counts {
		sum += float64(v) * float64(c)
	}
	return sum / float64(h.total)
}

// Mode returns the most frequent value, or -1 if empty.
func (h *Hist) Mode() int {
	best, bestC := -1, int64(0)
	for v, c := range h.counts {
		if c > bestC {
			best, bestC = v, c
		}
	}
	return best
}

// Quantile returns the q-quantile (0 <= q <= 1) of the observations.
func (h *Hist) Quantile(q float64) int {
	if h.total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var c int64
	for v, n := range h.counts {
		c += n
		if c >= target {
			return v
		}
	}
	return len(h.counts) - 1
}

// String renders the histogram one bucket per line with a bar, suitable for
// terminal output of figures.
func (h *Hist) String() string {
	var b strings.Builder
	max := h.Max()
	var peak int64 = 1
	for v := 0; v <= max; v++ {
		if h.counts[v] > peak {
			peak = h.counts[v]
		}
	}
	for v := 0; v <= max; v++ {
		c := h.counts[v]
		if c == 0 {
			continue
		}
		bar := strings.Repeat("#", int(40*c/peak))
		fmt.Fprintf(&b, "%4d | %-40s %6.2f%% (%d)\n", v, bar, 100*float64(c)/float64(h.total), c)
	}
	return b.String()
}

// Summary is a compact description of a sample of int64 observations.
type Summary struct {
	N                int
	Min, Max         int64
	Mean             float64
	Median, P10, P90 int64
}

// Summarize computes a Summary of xs. An empty sample yields the zero value.
func Summarize(xs []int64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]int64(nil), xs...)
	slices.Sort(s)
	var sum float64
	for _, x := range s {
		sum += float64(x)
	}
	q := func(p float64) int64 {
		i := int(p * float64(len(s)-1))
		return s[i]
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   sum / float64(len(s)),
		Median: q(0.5),
		P10:    q(0.1),
		P90:    q(0.9),
	}
}

// MedianInt64 returns the median of xs (lower median for even lengths), or 0
// for an empty slice.
func MedianInt64(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	slices.Sort(s)
	return s[len(s)/2]
}

// MajorityVote returns the most frequent value among votes and its count.
// Ties are broken toward the smaller value so results are deterministic.
// An empty vote set returns (-1, 0).
func MajorityVote(votes []int) (winner, count int) {
	if len(votes) == 0 {
		return -1, 0
	}
	tally := map[int]int{}
	for _, v := range votes {
		tally[v]++
	}
	winner, count = -1, 0
	for v, c := range tally {
		if c > count || (c == count && (winner == -1 || v < winner)) {
			winner, count = v, c
		}
	}
	return winner, count
}

// Accuracy returns the fraction of positions where got matches want,
// comparing up to the shorter length and counting missing positions of the
// longer sequence as errors against len(want).
func Accuracy(got, want []int) float64 {
	if len(want) == 0 {
		return 0
	}
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	match := 0
	for i := 0; i < n; i++ {
		if got[i] == want[i] {
			match++
		}
	}
	return float64(match) / float64(len(want))
}

// AccuracyBytes is Accuracy over byte sequences.
func AccuracyBytes(got, want []byte) float64 {
	g := make([]int, len(got))
	w := make([]int, len(want))
	for i, v := range got {
		g[i] = int(v)
	}
	for i, v := range want {
		w[i] = int(v)
	}
	return Accuracy(g, w)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Point is one (X, Y) observation in a Series.
type Point struct {
	X float64
	Y float64
}

// Series is an ordered set of points, used for sweep figures
// (e.g. preemption count vs. ΔI in Figure 4.4).
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// YAt returns the Y of the first point with X == x, and whether it exists.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}
