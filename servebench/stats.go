package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail timing may be reported at,
// highest last. p99 is the highest: the p99_ms key never reports a
// percentile above it.
var tailLadder = []float64{50, 75, 90, 95, 99}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailPercentile returns the highest percentile of tailLadder that has
// at least minBeyond of n samples beyond it (p50 when none has).
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// tail returns the highest tailLadder percentile of xs that has
// minBeyond samples beyond it, and that percentile.
func tail(xs []float64) (v, p float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p = tailPercentile(len(s))
	return percentile(s, p), p
}

// median of xs, the mean of the middle two when len(xs) is even (NaN
// when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// windowSize is the fewest consecutive samples a tail window holds:
// enough for p99 to have minBeyond samples beyond it.
const windowSize = 1000

// windowedTail splits time-ordered samples into as many consecutive
// windows of at least windowSize samples as fit (one window when fewer
// than 2·windowSize) and returns each window's tail and the percentile
// it was taken at. The reported tail is the median over windows, so one
// stall moves one window's tail, not the reported one.
func windowedTail(xs []float64) (tails []float64, p float64) {
	tails = make([]float64, max(1, len(xs)/windowSize))
	for w := range tails {
		tails[w], p = tail(xs[w*len(xs)/len(tails) : (w+1)*len(xs)/len(tails)])
	}
	return tails, p
}
