package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Bucket layout: log-spaced nanosecond bins with histSub sub-buckets per
// power of two, HDR-histogram style. Bucket 0 holds [0, 2^histMinExp);
// the last bucket is the overflow above 2^histMaxExp. In between, the
// octave [2^o, 2^(o+1)) is split into histSub equal-width bins, so the
// worst-case relative quantile error is 1/histSub ≈ 25% of the value's
// octave — tight enough to separate the paper's 3.92×–40× HW-vs-SW
// latency gap by orders of magnitude, cheap enough (NumBuckets uint64
// words ≈ 1 KiB) to put one histogram on every decide stage.
const (
	histMinExp  = 6  // bucket 0: [0, 64 ns)
	histMaxExp  = 36 // overflow bucket: [2^36 ns ≈ 68.7 s, +Inf)
	histSubBits = 2
	histSub     = 1 << histSubBits

	// NumBuckets is the fixed bucket count of every Histogram.
	NumBuckets = 1 + (histMaxExp-histMinExp)*histSub + 1
)

// bucketBounds[i] is the exclusive upper bound of bucket i in ns;
// the overflow bucket's bound is +Inf.
var bucketBounds = func() [NumBuckets]float64 {
	var b [NumBuckets]float64
	b[0] = float64(uint64(1) << histMinExp)
	for i := 1; i < NumBuckets-1; i++ {
		oct := histMinExp + (i-1)/histSub
		sub := (i - 1) % histSub
		b[i] = float64((uint64(1) << oct) + uint64(sub+1)<<(oct-histSubBits))
	}
	b[NumBuckets-1] = math.Inf(1)
	return b
}()

// bucketIdx maps a nanosecond value to its bucket.
func bucketIdx(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 1<<histMinExp {
		return 0
	}
	oct := bits.Len64(u) - 1
	if oct >= histMaxExp {
		return NumBuckets - 1
	}
	sub := (u >> (uint(oct) - histSubBits)) & (histSub - 1)
	return 1 + (oct-histMinExp)*histSub + int(sub)
}

// Histogram is a fixed-bucket latency histogram over nanosecond samples.
// Observe is lock-free and allocation-free; concurrent observers only
// contend on atomic adds. Create one with Registry.NewHistogram (to
// expose it) or NewHistogram (standalone).
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
	desc   desc
}

// NewHistogram creates a standalone histogram (not attached to a
// registry). name/help only matter if the histogram is later rendered.
func NewHistogram(name, help string, labels ...Label) *Histogram {
	return &Histogram{desc: desc{name: name, help: help, labels: renderLabels(labels), typ: "histogram"}}
}

// Observe records one nanosecond sample. Negative samples clamp to 0 so a
// stepped clock can never corrupt the distribution. Allocation-free.
func (h *Histogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIdx(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Snapshot captures a copy of the histogram state. Snapshots taken while
// observers are running are per-field atomic (the totals may trail the
// bucket sums by in-flight observations, never the reverse by more than
// the races in progress).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	// Read the totals first: if observers race the loop below, count/sum
	// undercount the buckets rather than claiming samples the buckets
	// don't hold.
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram, mergeable
// across shards/devices and queryable for quantiles.
type HistogramSnapshot struct {
	Counts [NumBuckets]uint64
	Count  uint64
	Sum    int64 // ns
	Max    int64 // ns, exact
}

// Merge folds other into s (bucket-wise addition; max of maxes).
func (s *HistogramSnapshot) Merge(other *HistogramSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += other.Counts[i]
	}
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Max > s.Max {
		s.Max = other.Max
	}
}

// Mean returns the mean sample in ns (0 when empty).
func (s *HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the q-th quantile (q in [0,1]) in ns, exact within
// bucket resolution: the reported value is the upper bound of the bucket
// containing the target rank, clamped to the exactly-tracked Max (so
// Quantile(1) is the true maximum and no quantile overshoots it).
// Returns 0 for an empty snapshot.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return float64(s.Max)
	}
	if q < 0 {
		q = 0
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			ub := bucketBounds[i]
			if ub > float64(s.Max) {
				ub = float64(s.Max)
			}
			return ub
		}
	}
	return float64(s.Max)
}

// utoa / itoa avoid fmt in the exposition inner loop.
func utoa(v uint64) string { return formatUint(v) }
func itoa(v int64) string {
	if v < 0 {
		return "-" + formatUint(uint64(-v))
	}
	return formatUint(uint64(v))
}

func formatUint(v uint64) string {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return string(buf[i:])
}
