package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || m != 2.5 {
		t.Fatalf("Mean = %v, %v", m, err)
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Fatalf("Mean(nil) err = %v, want ErrEmpty", err)
	}
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{1.5, 2.5, -1}); got != 3 {
		t.Fatalf("Sum = %v", got)
	}
	if got := Sum(nil); got != 0 {
		t.Fatalf("Sum(nil) = %v", got)
	}
}

func TestVariance(t *testing.T) {
	v, err := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(v, 32.0/7, 1e-12) {
		t.Fatalf("Variance = %v, want %v", v, 32.0/7)
	}
	if _, err := Variance([]float64{1}); err != ErrEmpty {
		t.Fatalf("Variance of 1 sample err = %v", err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	if mn != -1 || mx != 7 {
		t.Fatalf("Min/Max = %v/%v", mn, mx)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Fatal("Min(nil) no error")
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Fatal("Max(nil) no error")
	}
}

func TestCI95(t *testing.T) {
	ci, err := CI95([]float64{10, 10, 10, 10})
	if err != nil || ci != 0 {
		t.Fatalf("CI of constant = %v, %v", ci, err)
	}
	ci, _ = CI95([]float64{0, 2})
	want := 1.96 * math.Sqrt(2) / math.Sqrt(2)
	if !almostEq(ci, want, 1e-12) {
		t.Fatalf("CI95 = %v, want %v", ci, want)
	}
}

func TestHistogramBasics(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1.9, 2, 5, 9.99, -5, 100} {
		h.Add(x)
	}
	if h.Total() != 7 {
		t.Fatalf("Total = %d", h.Total())
	}
	// -5 clamps into bin 0, 100 clamps into bin 4.
	if h.Counts[0] != 3 { // 0, 1.9, -5
		t.Fatalf("bin0 = %d, counts=%v", h.Counts[0], h.Counts)
	}
	if h.Counts[4] != 2 { // 9.99, 100
		t.Fatalf("bin4 = %d", h.Counts[4])
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Fatal("0 bins accepted")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Fatal("lo==hi accepted")
	}
	if _, err := NewHistogram(6, 5, 3); err == nil {
		t.Fatal("lo>hi accepted")
	}
}

func TestHistogramSparkline(t *testing.T) {
	h, _ := NewHistogram(0, 4, 4)
	if got := h.Sparkline(); len([]rune(got)) != 4 {
		t.Fatalf("empty sparkline = %q", got)
	}
	for i := 0; i < 8; i++ {
		h.Add(3.5)
	}
	h.Add(0.5)
	sp := []rune(h.Sparkline())
	if sp[3] != '█' {
		t.Fatalf("hottest bin rune = %q", sp[3])
	}
	if sp[1] != ' ' {
		t.Fatalf("empty bin rune = %q", sp[1])
	}
}

// Property: histogram never loses samples.
func TestHistogramConservesProperty(t *testing.T) {
	f := func(raw []int16) bool {
		h, _ := NewHistogram(-100, 100, 7)
		for _, v := range raw {
			h.Add(float64(v))
		}
		total := 0
		for _, c := range h.Counts {
			total += c
		}
		return total == len(raw) && h.Total() == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
