package rng

import (
	"math"
	"testing"
)

func TestSplitMix64KnownVectors(t *testing.T) {
	// Reference vectors computed from the canonical C implementation
	// (Vigna, 2015) with seed 1234567.
	sm := SplitMix64{state: 1234567}
	want := []uint64{
		0x599ed017fb08fc85,
		0x2c73f08458540fa5,
		0x883ebce5a3f27c77,
	}
	for i, w := range want {
		if got := sm.Next(); got != w {
			t.Fatalf("SplitMix64 draw %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d differs: %#x vs %#x", i, av, bv)
		}
	}
}

// TestSeedMatchesNew pins Seed as New in place: a zero value and a
// generator reseeded mid-stream both draw exactly New's stream.
func TestSeedMatchesNew(t *testing.T) {
	var zero Rand
	zero.Seed(42)
	used := New(7)
	used.Uint64()
	used.Seed(42)
	want := New(42)
	for i := 0; i < 1000; i++ {
		w := want.Uint64()
		if z, u := zero.Uint64(), used.Uint64(); z != w || u != w {
			t.Fatalf("draw %d: seeded zero value %#x, reseeded %#x, New %#x", i, z, u, w)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws of 100", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 0 and 1 of seed 7 collide %d/100 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(99)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of %d uniforms = %v, want ~0.5", n, mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(8)
	const buckets = 10
	const draws = 100000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d count %d deviates >5%% from %v", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	const mean, sd = 3.0, 2.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm(mean, sd)
		sum += v
		sumSq += v * v
	}
	m := sum / n
	variance := sumSq/n - m*m
	if math.Abs(m-mean) > 0.05 {
		t.Errorf("Norm mean = %v, want ~%v", m, mean)
	}
	if math.Abs(math.Sqrt(variance)-sd) > 0.05 {
		t.Errorf("Norm stddev = %v, want ~%v", math.Sqrt(variance), sd)
	}
}

func TestExpMean(t *testing.T) {
	r := New(13)
	const n = 200000
	const rate = 4.0
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	if got, want := sum/n, 1/rate; math.Abs(got-want) > 0.01 {
		t.Fatalf("Exp mean = %v, want ~%v", got, want)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestLogNormPositive(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		if v := r.LogNorm(0, 1); v <= 0 {
			t.Fatalf("LogNorm returned non-positive %v", v)
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(19)
	const n = 100000
	const p = 0.3
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	if got := float64(hits) / n; math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) frequency = %v", p, got)
	}
}

func TestChoiceRespectWeights(t *testing.T) {
	r := New(23)
	weights := []float64{1, 0, 3}
	const n = 100000
	var counts [3]int
	for i := 0; i < n; i++ {
		counts[r.Choice(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weight-3/weight-1 ratio = %v, want ~3", ratio)
	}
}

func TestChoicePanics(t *testing.T) {
	cases := [][]float64{{0, 0}, {-1, 2}}
	for _, w := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Choice(%v) did not panic", w)
				}
			}()
			New(1).Choice(w)
		}()
	}
}

// Property: Mix64 is injective on a sample (collision would be a bug
// for stream derivation).
func TestMix64NoEasyCollisions(t *testing.T) {
	seen := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: %d and %d -> %#x", prev, i, h)
		}
		seen[h] = i
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Norm(0, 1)
	}
	_ = sink
}
