// Package phy models the physical layer of a CXL 3.0 link: a bit-error
// channel parameterized by BER with an optional burst-extension model that
// mimics DFE (Decision Feedback Equalization) error propagation, where one
// wrong symbol decision corrupts subsequent symbols (Section 2.2).
//
// Everything is driven by a deterministic, splittable xoshiro256** RNG so
// that every experiment in the repository is reproducible from a seed.
package phy

import "math"

// RNG is a xoshiro256** pseudo-random generator. It is deterministic,
// fast, and splittable: Split derives an independent stream, letting each
// simulated link own its own error process while the whole experiment stays
// reproducible from one master seed.
//
// An RNG is not safe for concurrent use; Split one per goroutine/entity.
type RNG struct {
	s [4]uint64
}

// splitmix64 expands a seed into well-distributed state words.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// NewRNG returns a generator seeded from seed. Any seed (including 0) is
// valid.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("phy: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Byte returns a uniform random byte.
func (r *RNG) Byte() byte { return byte(r.Uint64()) }

// NonzeroByte returns a uniform random byte in [1, 255].
func (r *RNG) NonzeroByte() byte { return byte(r.Intn(255) + 1) }

// Fill fills buf with random bytes.
func (r *RNG) Fill(buf []byte) {
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8; j++ {
			buf[i+j] = byte(v >> (8 * j))
		}
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(r.Uint64())
	}
}

// Split returns a new independent generator derived from this one's stream.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Geometric samples the number of Bernoulli(p) failures before the first
// success — i.e., the gap to the next bit error in an iid-BER channel. For
// p <= 0 it returns math.MaxInt (no error ever); p >= 1 returns 0.
func (r *RNG) Geometric(p float64) int {
	if p <= 0 {
		return math.MaxInt
	}
	if p >= 1 {
		return 0
	}
	return r.GeometricLog(math.Log1p(-p))
}

// GeometricLog is Geometric for p in (0,1) given log1mp = log1p(-p), for
// loops that draw many gaps at one rate: the logarithm is computed once
// by the caller, and the draw is bit-identical to Geometric(p).
func (r *RNG) GeometricLog(log1mp float64) int {
	u := r.Float64()
	// Guard against log(0).
	for u == 0 {
		u = r.Float64()
	}
	g := math.Log(u) / log1mp
	if g >= float64(math.MaxInt64) {
		return math.MaxInt
	}
	return int(g)
}
