// Package rng provides the deterministic pseudo-random source used by the
// simulation. Every experiment seeds its own generator, so figures and
// accuracy numbers regenerate bit-identically across runs and machines.
//
// The generator is splitmix64 (Steele, Lea & Flood 2014): tiny state, full
// 64-bit period of the underlying Weyl sequence, and excellent statistical
// quality for simulation jitter. It is not cryptographically secure and is
// never used for key material (key material comes from a dedicated stream
// seeded per experiment, still splitmix64, because reproducibility of the
// *attacked* keys is a feature here, not a bug).
package rng

import "math"

// RNG is a deterministic random number generator. The zero value is a valid
// generator seeded with 0; prefer New for explicit seeding.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG { return &RNG{state: seed} }

// State returns the generator's internal state: a generator set to a saved
// state (SetState) produces exactly the tail the original would have
// produced.
func (r *RNG) State() uint64 { return r.state }

// SetState overwrites the generator's internal state (see State); pooled
// machines re-seed their streams in place with it.
func (r *RNG) SetState(s uint64) { r.state = s }

// Fork derives an independent generator from r, labelled by tag. Forked
// streams are statistically independent of the parent and of forks with
// other tags, which lets one experiment seed many subsystems without
// cross-contamination when call orders change.
func (r *RNG) Fork(tag uint64) *RNG {
	return New(r.ForkState(tag))
}

// ForkState advances r exactly as Fork does and returns the state a Fork
// with the same tag would start from, without allocating — re-seeding a
// pooled generator in place (SetState) then matches a fresh Fork exactly.
func (r *RNG) ForkState(tag uint64) uint64 {
	return r.Uint64() ^ (tag * 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32 uniformly random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Range returns a uniform int64 in [lo, hi]. It panics if hi < lo.
func (r *RNG) Range(lo, hi int64) int64 {
	if hi < lo {
		panic("rng: Range with hi < lo")
	}
	return lo + r.Int63n(hi-lo+1)
}

// Normal returns a normally distributed float64 with the given mean and
// standard deviation, via the Box-Muller transform.
func (r *RNG) Normal(mean, stddev float64) float64 {
	// Avoid log(0).
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Exponential returns an exponentially distributed float64 with the given
// mean.
func (r *RNG) Exponential(mean float64) float64 {
	u := 1 - r.Float64()
	return -mean * math.Log(u)
}

// Bytes fills b with random bytes.
func (r *RNG) Bytes(b []byte) {
	for i := range b {
		if i%8 == 0 {
			v := r.Uint64()
			for j := 0; j < 8 && i+j < len(b); j++ {
				b[i+j] = byte(v >> (8 * j))
			}
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
