// Package stats provides the summary statistics the experiment harness
// reports: means, variances, confidence intervals and histograms.
//
// Everything here is deliberately dependency-free and deterministic so that
// table rows regenerate identically across runs.
package stats

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrEmpty is returned by reductions over empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Sum returns the sum of xs (0 for empty input).
func Sum(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Variance returns the unbiased sample variance (n-1 denominator).
// Requires at least two samples.
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	m, _ := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1), nil
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Min returns the minimum of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// under a normal approximation (1.96 * sem). Requires >= 2 samples.
func CI95(xs []float64) (float64, error) {
	sd, err := StdDev(xs)
	if err != nil {
		return 0, err
	}
	return 1.96 * sd / math.Sqrt(float64(len(xs))), nil
}

// Histogram is a fixed-bin histogram over [Lo, Hi). Out-of-range samples
// clamp into the edge bins so nothing is silently dropped.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins over [lo,hi).
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: histogram needs positive bin count, got %d", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: histogram needs lo < hi, got [%v,%v)", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add records x.
func (h *Histogram) Add(x float64) {
	bins := len(h.Counts)
	idx := int(float64(bins) * (x - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= bins {
		idx = bins - 1
	}
	h.Counts[idx]++
	h.total++
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() int { return h.total }

// Sparkline renders the histogram as a compact unicode bar string, used in
// pmbench's figure output.
func (h *Histogram) Sparkline() string {
	if h.total == 0 {
		return strings.Repeat(" ", len(h.Counts))
	}
	ticks := []rune(" ▁▂▃▄▅▆▇█")
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for _, c := range h.Counts {
		idx := 0
		if maxC > 0 {
			idx = c * (len(ticks) - 1) / maxC
		}
		b.WriteRune(ticks[idx])
	}
	return b.String()
}
