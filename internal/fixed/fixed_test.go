package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 1, -1, 0.5, -0.5, 3.25, -7.125, 32767, -32768}
	for _, f := range cases {
		if got := FromFloat(f).Float(); got != f {
			t.Errorf("FromFloat(%v).Float() = %v", f, got)
		}
	}
}

func TestFromFloatSaturates(t *testing.T) {
	if got := FromFloat(1e9); got != Max {
		t.Errorf("FromFloat(1e9) = %v, want Max", got)
	}
	if got := FromFloat(-1e9); got != Min {
		t.Errorf("FromFloat(-1e9) = %v, want Min", got)
	}
	if got := FromFloat(math.Inf(1)); got != Max {
		t.Errorf("FromFloat(+Inf) = %v, want Max", got)
	}
	if got := FromFloat(math.Inf(-1)); got != Min {
		t.Errorf("FromFloat(-Inf) = %v, want Min", got)
	}
}

func TestFromFloatNaN(t *testing.T) {
	if got := FromFloat(math.NaN()); got != 0 {
		t.Errorf("FromFloat(NaN) = %v, want 0", got)
	}
}

func TestIntTruncatesTowardNegInf(t *testing.T) {
	if got := FromFloat(-1.5).Int(); got != -2 {
		t.Errorf("Int(-1.5) = %d, want -2 (arithmetic shift)", got)
	}
	if got := FromFloat(1.5).Int(); got != 1 {
		t.Errorf("Int(1.5) = %d, want 1", got)
	}
}

func TestAddSaturation(t *testing.T) {
	if got := Add(Max, One); got != Max {
		t.Errorf("Max+1 = %v, want Max", got)
	}
	if got := Add(Min, Neg(One)); got != Min {
		t.Errorf("Min-1 = %v, want Min", got)
	}
	if got := Add(FromFloat(2), FromFloat(3)); got != FromFloat(5) {
		t.Errorf("2+3 = %v", got)
	}
}

func TestSubSaturation(t *testing.T) {
	if got := Sub(Min, One); got != Min {
		t.Errorf("Min-1 = %v, want Min", got)
	}
	if got := Sub(Max, Neg(One)); got != Max {
		t.Errorf("Max+1 = %v, want Max", got)
	}
}

func TestNegOfMin(t *testing.T) {
	if got := Neg(Min); got != Max {
		t.Errorf("Neg(Min) = %v, want Max", got)
	}
	if got := Neg(FromFloat(3)); got != FromFloat(-3) {
		t.Errorf("Neg(3) = %v", got)
	}
}

func TestAbs(t *testing.T) {
	if got := Abs(FromFloat(-3)); got != FromFloat(3) {
		t.Errorf("Abs(-3) = %v", got)
	}
	if got := Abs(Min); got != Max {
		t.Errorf("Abs(Min) = %v, want Max (saturated)", got)
	}
}

func TestMulExact(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{2, 3, 6},
		{0.5, 0.5, 0.25},
		{-2, 3, -6},
		{-0.25, -0.25, 0.0625},
		{1, 0, 0},
	}
	for _, c := range cases {
		got := Mul(FromFloat(c.a), FromFloat(c.b)).Float()
		if got != c.want {
			t.Errorf("Mul(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMulSaturates(t *testing.T) {
	big := FromFloat(30000)
	if got := Mul(big, big); got != Max {
		t.Errorf("30000*30000 = %v, want Max", got)
	}
	if got := Mul(big, FromFloat(-30000)); got != Min {
		t.Errorf("30000*-30000 = %v, want Min", got)
	}
}

func TestLerpEndpoints(t *testing.T) {
	a, b := FromFloat(2), FromFloat(10)
	if got := Lerp(a, b, 0); got != a {
		t.Errorf("Lerp t=0 = %v, want a", got)
	}
	if got := Lerp(a, b, One); got != b {
		t.Errorf("Lerp t=1 = %v, want b", got)
	}
	if got := Lerp(a, b, FromFloat(0.5)).Float(); got != 6 {
		t.Errorf("Lerp t=0.5 = %v, want 6", got)
	}
}

func TestArgMaxTieBreaksLow(t *testing.T) {
	idx, max := ArgMax([]Q16{FromFloat(3), FromFloat(7), FromFloat(7), FromFloat(1)})
	if idx != 1 || max != FromFloat(7) {
		t.Errorf("ArgMax = (%d,%v), want (1,7)", idx, max)
	}
}

func TestArgMaxSingle(t *testing.T) {
	idx, max := ArgMax([]Q16{FromFloat(-4)})
	if idx != 0 || max != FromFloat(-4) {
		t.Errorf("ArgMax single = (%d,%v)", idx, max)
	}
}

func TestArgMaxPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ArgMax(empty) did not panic")
		}
	}()
	ArgMax(nil)
}

func TestMulAddEqualsAddMul(t *testing.T) {
	acc, a, b := FromFloat(1.5), FromFloat(2.25), FromFloat(-0.5)
	if got, want := MulAdd(acc, a, b), Add(acc, Mul(a, b)); got != want {
		t.Errorf("MulAdd = %v, want %v", got, want)
	}
}

// --- Property-based tests -------------------------------------------------

// in16 narrows an arbitrary int32 raw word to a value safely away from the
// saturation rails so exactness properties hold.
func smallQ(raw int32) Q16 { return Q16(raw % (1 << 24)) }

// eps is one LSB, the smallest positive Q16 value (2^-16).
const eps Q16 = 1

func TestAddCommutativeProperty(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Q16(a), Q16(b)
		return Add(x, y) == Add(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulCommutativeProperty(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Q16(a), Q16(b)
		return Mul(x, y) == Mul(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddMatchesFloatWhenSmall(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := smallQ(a), smallQ(b)
		got := Add(x, y).Float()
		want := x.Float() + y.Float()
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulCloseToFloatWhenSmall(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := smallQ(a%(1<<20)), smallQ(b%(1<<20))
		got := Mul(x, y).Float()
		want := x.Float() * y.Float()
		// One LSB of rounding error is allowed.
		return math.Abs(got-want) <= eps.Float()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNeverPanicsOrWrapsProperty(t *testing.T) {
	// Saturating ops must stay within [Min,Max] for every input — with
	// int32 raw values that is automatic, but this documents that no op
	// panics and results are always ordered.
	f := func(a, b int32) bool {
		x, y := Q16(a), Q16(b)
		for _, v := range []Q16{Add(x, y), Sub(x, y), Mul(x, y), Lerp(x, y, FromFloat(0.3))} {
			if v > Max || v < Min {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLerpBoundedProperty(t *testing.T) {
	// For t in [0,1] Lerp stays within [min(a,b)-eps, max(a,b)+eps].
	f := func(a, b int32, tt uint16) bool {
		x, y := smallQ(a), smallQ(b)
		tq := Q16(int32(tt) % int32(One+1)) // [0,1]
		v := Lerp(x, y, tq)
		lo, hi := min(x, y), max(x, y)
		return v >= Sub(lo, eps) && v <= Add(hi, eps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringFormat(t *testing.T) {
	if got := FromFloat(1.5).String(); got != "1.500000" {
		t.Errorf("String = %q", got)
	}
}

func TestRawRoundTrip(t *testing.T) {
	f := func(w int32) bool { return FromRaw(w).Raw() == w }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := FromFloat(1.2345), FromFloat(-0.9876)
	var sink Q16
	for i := 0; i < b.N; i++ {
		sink = Mul(x, y)
	}
	_ = sink
}

func BenchmarkArgMax16(b *testing.B) {
	vals := make([]Q16, 16)
	for i := range vals {
		vals[i] = Q16(i * 1000)
	}
	for i := 0; i < b.N; i++ {
		ArgMax(vals)
	}
}
