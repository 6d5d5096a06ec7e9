// Package fixed implements saturating signed fixed-point arithmetic in the
// Q16.16 format used by the hardware Q-learning datapath model.
//
// The FPGA implementation of the power-management policy stores Q-values in
// BRAM as 32-bit two's-complement words with 16 fractional bits and updates
// them with a multiply-accumulate unit. This package reproduces that
// arithmetic exactly — including saturation on overflow and
// round-to-nearest-even on multiplication — so that the software model of
// the accelerator (internal/hwpolicy) is bit-accurate and can be
// differentially tested against a float64 reference.
package fixed

import (
	"fmt"
	"math"
)

// Q16 is a signed Q16.16 fixed-point number: 16 integer bits (including
// sign) and 16 fractional bits stored in an int32.
type Q16 int32

// Fundamental constants of the format.
const (
	FracBits     = 16
	One      Q16 = 1 << FracBits
	Max      Q16 = math.MaxInt32
	Min      Q16 = math.MinInt32
)

// FromFloat converts a float64 to Q16.16, rounding to nearest and
// saturating at the representable range. NaN converts to zero, matching the
// hardware's behaviour of never producing NaN.
func FromFloat(f float64) Q16 {
	if math.IsNaN(f) {
		return 0
	}
	scaled := f * float64(One)
	switch {
	case scaled >= float64(Max):
		return Max
	case scaled <= float64(Min):
		return Min
	}
	return Q16(math.RoundToEven(scaled))
}

// Float returns the float64 value of q.
func (q Q16) Float() float64 { return float64(q) / float64(One) }

// Int returns the integer part of q, truncating toward negative infinity
// (arithmetic shift), exactly as the hardware truncates.
func (q Q16) Int() int { return int(q >> FracBits) }

// Raw returns the underlying 32-bit word.
func (q Q16) Raw() int32 { return int32(q) }

// FromRaw builds a Q16 from a raw 32-bit word.
func FromRaw(w int32) Q16 { return Q16(w) }

// String formats q with full fractional precision.
func (q Q16) String() string { return fmt.Sprintf("%.6f", q.Float()) }

// Add returns a+b with saturation.
func Add(a, b Q16) Q16 {
	s := int64(a) + int64(b)
	return sat64(s)
}

// Sub returns a-b with saturation.
func Sub(a, b Q16) Q16 {
	s := int64(a) - int64(b)
	return sat64(s)
}

// Neg returns -a with saturation (Neg(Min) == Max, as the hardware clamps).
func Neg(a Q16) Q16 {
	if a == Min {
		return Max
	}
	return -a
}

// Abs returns |a| with saturation.
func Abs(a Q16) Q16 {
	if a < 0 {
		return Neg(a)
	}
	return a
}

// Mul returns a*b with a 64-bit intermediate product, round-to-nearest
// (add half an LSB, then arithmetic shift — exactly the add-half-truncate
// rounding a DSP slice implements) and saturation.
func Mul(a, b Q16) Q16 {
	p := int64(a) * int64(b)
	p += 1 << (FracBits - 1)
	return sat64(p >> FracBits)
}

// MulAdd returns sat(acc + a*b) in one fused operation with a single
// rounding at the end of the multiply — this is the accelerator's MAC.
func MulAdd(acc, a, b Q16) Q16 {
	return Add(acc, Mul(a, b))
}

// Lerp returns a + t*(b-a), the blend the Q-update uses:
// Q' = Q + alpha*(target - Q). t is typically in [0,1].
func Lerp(a, b, t Q16) Q16 {
	return Add(a, Mul(t, Sub(b, a)))
}

// ArgMax returns the index of the maximum element and the maximum itself.
// Ties resolve to the lowest index, which is also what the hardware
// comparator tree does (the earlier operand wins on equality).
// Panics on an empty slice.
func ArgMax(vals []Q16) (idx int, max Q16) {
	if len(vals) == 0 {
		panic("fixed: ArgMax of empty slice")
	}
	idx, max = 0, vals[0]
	for i := 1; i < len(vals); i++ {
		if vals[i] > max {
			idx, max = i, vals[i]
		}
	}
	return idx, max
}

func sat64(v int64) Q16 {
	if v > int64(Max) {
		return Max
	}
	if v < int64(Min) {
		return Min
	}
	return Q16(v)
}
