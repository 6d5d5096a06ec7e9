package obs

import (
	"math"
	"sort"
	"testing"

	"rlpm/internal/rng"
)

// TestBucketBoundsMonotone pins the bucket layout: strictly increasing
// bounds, the documented first bound, and the +Inf overflow bucket.
func TestBucketBoundsMonotone(t *testing.T) {
	if got := bucketBounds[0]; got != 64 {
		t.Fatalf("bucket 0 upper bound %v, want 64", got)
	}
	for i := 1; i < NumBuckets; i++ {
		if bucketBounds[i] <= bucketBounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v <= %v",
				i, bucketBounds[i], bucketBounds[i-1])
		}
	}
	if !math.IsInf(bucketBounds[NumBuckets-1], 1) {
		t.Fatalf("overflow bound %v, want +Inf", bucketBounds[NumBuckets-1])
	}
}

// TestBucketIdxProperty checks, across the full value range, that every
// sample lands in the unique bucket whose half-open interval contains it.
func TestBucketIdxProperty(t *testing.T) {
	check := func(v int64) {
		i := bucketIdx(v)
		if i < 0 || i >= NumBuckets {
			t.Fatalf("bucketIdx(%d) = %d out of range", v, i)
		}
		if float64(v) >= bucketBounds[i] {
			t.Fatalf("value %d at or above its bucket %d bound %v", v, i, bucketBounds[i])
		}
		if i > 0 && float64(v) < bucketBounds[i-1] {
			t.Fatalf("value %d below bucket %d's lower bound %v", v, i, bucketBounds[i-1])
		}
	}
	// Edges: every bound, one below, one above.
	for i := 0; i < NumBuckets-1; i++ {
		b := int64(bucketBounds[i])
		check(b - 1)
		check(b)
		check(b + 1)
	}
	check(0)
	check(1)
	check(math.MaxInt64)
	r := rng.New(99)
	for k := 0; k < 10000; k++ {
		shift := uint(r.Intn(62))
		check(int64(r.Uint64() >> shift))
	}
	if got := bucketIdx(-5); got != 0 {
		t.Fatalf("negative sample bucket %d, want 0 (clamped)", got)
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	h := NewHistogram("h", "")
	samples := []int64{10, 100, 100, 5000, 1 << 20, -3}
	for _, s := range samples {
		h.Observe(s)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(samples)) {
		t.Fatalf("count %d, want %d", s.Count, len(samples))
	}
	wantSum := int64(10 + 100 + 100 + 5000 + 1<<20 + 0) // -3 clamps to 0
	if s.Sum != wantSum {
		t.Fatalf("sum %d, want %d", s.Sum, wantSum)
	}
	if s.Max != 1<<20 {
		t.Fatalf("max %d, want %d", s.Max, int64(1)<<20)
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != count %d", total, s.Count)
	}
	if got, want := s.Mean(), float64(wantSum)/float64(len(samples)); got != want {
		t.Fatalf("mean %v, want %v", got, want)
	}
}

// TestQuantileWithinResolution draws a known sample set and checks every
// recovered quantile is an upper bound of the true quantile's bucket:
// never below the true value, never past the next bound (or the max).
func TestQuantileWithinResolution(t *testing.T) {
	h := NewHistogram("h", "")
	r := rng.New(7)
	samples := make([]int64, 5000)
	for i := range samples {
		samples[i] = int64(r.Intn(10_000_000)) // 0..10ms
	}
	for _, s := range samples {
		h.Observe(s)
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	snap := h.Snapshot()
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999} {
		got := snap.Quantile(q)
		rank := int(math.Ceil(q * float64(len(sorted))))
		if rank < 1 {
			rank = 1
		}
		truth := float64(sorted[rank-1])
		if got < truth {
			t.Fatalf("q=%v: recovered %v below true value %v", q, got, truth)
		}
		ub := bucketBounds[bucketIdx(int64(truth))]
		if ub > float64(snap.Max) {
			ub = float64(snap.Max)
		}
		if got > ub {
			t.Fatalf("q=%v: recovered %v past the true value's bucket bound %v", q, got, ub)
		}
	}
	if got := snap.Quantile(1); got != float64(snap.Max) {
		t.Fatalf("Quantile(1) = %v, want exact max %v", got, float64(snap.Max))
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile %v, want 0", got)
	}
}

// TestQuantileNeverExceedsMax: a single huge sample puts the quantile
// bucket's bound far above the sample; the clamp must report the exact max.
func TestQuantileNeverExceedsMax(t *testing.T) {
	h := NewHistogram("h", "")
	h.Observe(1_000_001)
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 1_000_001 {
			t.Fatalf("q=%v: %v, want the exact max 1000001", q, got)
		}
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b, all := NewHistogram("a", ""), NewHistogram("b", ""), NewHistogram("all", "")
	r := rng.New(3)
	for i := 0; i < 1000; i++ {
		v := int64(r.Intn(1 << 24))
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	sa, sall := a.Snapshot(), all.Snapshot()
	sb := b.Snapshot()
	sa.Merge(&sb)
	if sa != sall {
		t.Fatalf("merged snapshot differs from the union histogram")
	}
}

// TestHotPathAllocationFree is the acceptance gate: Counter.Add, Gauge.Set
// and Histogram.Observe must not allocate — they run on every decision.
func TestHotPathAllocationFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c_total", "")
	g := reg.NewGauge("g", "")
	h := reg.NewHistogram("h_ns", "")
	var n int64
	if a := testing.AllocsPerRun(1000, func() {
		n++
		c.Add(1)
		g.Set(float64(n))
		h.Observe(n * 37)
	}); a != 0 {
		t.Fatalf("hot path allocates %.1f allocs/op, want 0", a)
	}
}
