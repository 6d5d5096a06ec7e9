// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: every
// table and figure must regenerate bit-identically from a seed. The standard
// library's math/rand/v2 would work, but its generator family is not pinned
// across Go releases; this package pins splitmix64 (for seeding) and
// xoshiro256** (for streams) so traces are stable forever.
package rng

import (
	"errors"
	"math"
)

// SplitMix64 is the seeding generator recommended by the xoshiro authors.
// It is also useful on its own for cheap, stateless hashing of integers.
type SplitMix64 struct {
	state uint64
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes x through one splitmix64 round. Useful for deriving
// independent stream seeds from (seed, streamID) pairs.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rand is a xoshiro256** generator. The zero value is not usable; construct
// with New or NewStream.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64, as the xoshiro
// authors recommend (never seed xoshiro state with correlated words).
func New(seed uint64) *Rand {
	var r Rand
	r.Seed(seed)
	return &r
}

// Seed resets r in place to the stream New(seed) starts, so a generator
// embedded in a larger value costs no allocation of its own.
func (r *Rand) Seed(seed uint64) {
	sm := SplitMix64{state: seed}
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// All-zero state is invalid for xoshiro; splitmix64 output of four
	// consecutive draws is never all zero, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// NewStream returns a generator for (seed, stream) that is statistically
// independent of other streams with the same seed. Used to give each
// scenario phase, each cluster, and the agent's exploration their own
// streams so adding a consumer never perturbs the others.
func NewStream(seed, stream uint64) *Rand {
	return New(Mix64(seed) ^ Mix64(stream^0xd1b54a32d192ed03))
}

// State exports the generator's raw xoshiro256** state so a session can be
// suspended and resumed bit-exactly (the serving tier's crash-recovery path
// carries it across server restarts).
func (r *Rand) State() [4]uint64 { return r.s }

// NewFromState reconstructs a generator from a State() export. The all-zero
// state is invalid for xoshiro and is rejected so a zero-filled transport
// buffer can never produce a degenerate generator.
func NewFromState(s [4]uint64) (*Rand, error) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return nil, errors.New("rng: all-zero xoshiro state")
	}
	return &Rand{s: s}, nil
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high bits → [0,1) with full double precision.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). Panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling, biased variant is fine
	// for n << 2^64 but we use the exact rejection form for correctness.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation, via the polar Box–Muller method.
func (r *Rand) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNorm returns a log-normally distributed value whose underlying normal
// has parameters mu and sigma.
func (r *Rand) LogNorm(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate).
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := r.Float64()
	// Float64 is in [0,1); 1-u is in (0,1] so the log is finite.
	return -math.Log(1-u) / rate
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Choice returns a uniformly chosen index weighted by weights. All weights
// must be non-negative; at least one must be positive.
func (r *Rand) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: all weights zero")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1 // x landed exactly on total due to rounding
}
