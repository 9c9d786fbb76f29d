// Package rng provides the deterministic pseudo-random source used by every
// simulator in this repository. All simulations are seeded explicitly so
// experiment tables are reproducible run-to-run; nothing in the repository
// draws entropy from the wall clock or the OS.
//
// The generator is xoshiro256**, seeded through splitmix64 as its authors
// recommend. Sampling helpers cover the distributions the model needs:
// exponential waiting times for Poisson clocks, categorical draws over
// transition rates, geometric and Poisson variates for analysis utilities.
package rng

import (
	"errors"
	"math"
	"math/bits"
)

// ErrEmptyWeights indicates a categorical draw over no positive weight.
var ErrEmptyWeights = errors.New("rng: no positive weight to sample")

// RNG is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; the sweep harness gives each worker its own RNG derived
// via Split.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed via splitmix64.
func New(seed uint64) *RNG {
	var r RNG
	r.Reseed(seed)
	return &r
}

// Reseed resets the generator state from seed.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start at the all-zero state; splitmix64 of any seed
	// cannot produce four zero words, but guard regardless.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives an independent generator from the current stream, for
// handing to a parallel worker.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

// Uint64 returns the next 64 uniform random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics; simulator call sites guarantee n >= 1.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
// It panics if rate <= 0; the simulators only schedule clocks with positive
// aggregate rate.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := r.Float64()
	// 1-u is in (0,1], so the log is finite.
	return -math.Log(1-u) / rate
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Categorical draws index i with probability weights[i] / sum(weights).
// Negative weights are treated as zero. It returns ErrEmptyWeights when the
// total weight is not positive.
func (r *RNG) Categorical(weights []float64) (int, error) {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0, ErrEmptyWeights
	}
	u := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		u -= w
		if u < 0 {
			return i, nil
		}
	}
	// Guard against floating point round-off: return last positive index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i, nil
		}
	}
	return 0, ErrEmptyWeights
}

// Poisson returns a Poisson variate with the given mean: Knuth inversion
// below mean 30, and Hörmann's PTRS transformed rejection above. PTRS draws
// O(1) uniforms per variate regardless of the mean — the property the hybrid
// simulator's tau-leaping depends on, since a leap draws channel counts with
// means of order ε·N and an O(mean) sampler would erase the speedup over
// event-by-event simulation.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		// Knuth inversion: O(mean) uniforms, exact and cheap at small means.
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	// PTRS (Hörmann 1993, "The transformed rejection method for generating
	// Poisson random variables"), valid for mean ≥ 10: acceptance ≈ 94%, so
	// the expected uniforms per variate stay near 2 at any mean.
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		// The slow path: most draws take the fast accept above, so the
		// logarithms are taken only here.
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*math.Log(mean)-mean-lg {
			return int(k)
		}
	}
}

// Geometric returns the number of failures before the first success in
// Bernoulli(p) trials (support {0,1,2,...}). p is clamped into (0,1].
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric with non-positive p")
	}
	u := r.Float64()
	return int(math.Floor(math.Log(1-u) / math.Log(1-p)))
}

// Perm fills a permutation of [0,n) using Fisher–Yates.
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

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Picker is a categorical sampler over a fixed weight vector with the total
// precomputed at construction. Pick draws exactly the index Categorical
// would draw from the same stream — one Float64 variate mapped through the
// identical successive-subtraction scan — so swapping one for the other
// never changes which realization a seed produces. The win is work, not
// law: Categorical rescans the weights to re-derive the total on every
// draw, while a Picker does a single selection pass; simulators with static
// arrival weights build one at construction and keep the event path free of
// the redundant O(#types) total scan.
type Picker struct {
	weights []float64
	total   float64
}

// NewPicker validates and captures the weight vector (copied, so later
// mutation of the argument cannot skew draws). Negative weights are treated
// as zero, exactly as Categorical does; a vector with no positive weight is
// rejected with ErrEmptyWeights.
func NewPicker(weights []float64) (*Picker, error) {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return nil, ErrEmptyWeights
	}
	p := &Picker{weights: make([]float64, len(weights)), total: total}
	copy(p.weights, weights)
	return p, nil
}

// Total returns the sum of the positive weights.
func (p *Picker) Total() float64 { return p.total }

// Pick draws index i with probability weights[i] / total, consuming one
// uniform variate. The scan mirrors Categorical's selection loop term for
// term (same float additions in the same order), keeping the two samplers
// bit-identical on a shared stream.
func (p *Picker) Pick(r *RNG) int {
	u := r.Float64() * p.total
	for i, w := range p.weights {
		if w <= 0 {
			continue
		}
		u -= w
		if u < 0 {
			return i
		}
	}
	// Guard against floating point round-off: return last positive index.
	for i := len(p.weights) - 1; i >= 0; i-- {
		if p.weights[i] > 0 {
			return i
		}
	}
	return 0 // unreachable: construction guarantees a positive weight
}
