package rng

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
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
		t.Errorf("%d/100 collisions between different seeds", same)
	}
}

func TestReseedRestarts(t *testing.T) {
	r := New(7)
	first := r.Uint64()
	r.Uint64()
	r.Reseed(7)
	if got := r.Uint64(); got != first {
		t.Errorf("Reseed did not restart stream: %d vs %d", got, first)
	}
}

func TestSplitIndependent(t *testing.T) {
	r := New(3)
	child := r.Split()
	if child.Uint64() == r.Uint64() {
		t.Error("split stream should not track parent")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := New(9)
	const rate, draws = 2.5, 200000
	var sum float64
	for i := 0; i < draws; i++ {
		x := r.Exp(rate)
		if x < 0 {
			t.Fatalf("negative exponential %v", x)
		}
		sum += x
	}
	mean := sum / draws
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("Exp mean = %v, want %v", mean, 1/rate)
	}
}

func TestCategorical(t *testing.T) {
	r := New(13)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const draws = 100000
	for i := 0; i < draws; i++ {
		idx, err := r.Categorical(w)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Errorf("weight ratio = %v, want 3", ratio)
	}
}

func TestCategoricalEmpty(t *testing.T) {
	r := New(1)
	if _, err := r.Categorical(nil); !errors.Is(err, ErrEmptyWeights) {
		t.Errorf("nil weights err = %v", err)
	}
	if _, err := r.Categorical([]float64{0, -1}); !errors.Is(err, ErrEmptyWeights) {
		t.Errorf("non-positive weights err = %v", err)
	}
}

func TestCategoricalNegativeIgnored(t *testing.T) {
	r := New(2)
	for i := 0; i < 1000; i++ {
		idx, err := r.Categorical([]float64{-5, 1})
		if err != nil || idx != 1 {
			t.Fatalf("draw = %d, err = %v", idx, err)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	for _, mean := range []float64{0.5, 4, 10, 12.5, 20, 29.9, 50} {
		r := New(uint64(mean*1000) + 17)
		const draws = 50000
		var sum, sumsq float64
		for i := 0; i < draws; i++ {
			x := float64(r.Poisson(mean))
			sum += x
			sumsq += x * x
		}
		m := sum / draws
		v := sumsq/draws - m*m
		if math.Abs(m-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(v-mean) > 0.1*mean+0.1 {
			t.Errorf("Poisson(%v) var = %v", mean, v)
		}
	}
	if New(1).Poisson(0) != 0 || New(1).Poisson(-2) != 0 {
		t.Error("Poisson of non-positive mean must be 0")
	}
}

// TestPoissonPanics pins the input contract: NaN, +Inf and means from 2^53
// on panic instead of spinning forever or overflowing int, as Exp and Intn
// panic on their invalid arguments.
func TestPoissonPanics(t *testing.T) {
	for _, mean := range []float64{math.NaN(), math.Inf(1), 1 << 53, 1e300} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Poisson(%g) did not panic", mean)
				}
			}()
			New(1).Poisson(mean)
		}()
	}
	if got := New(1).Poisson(math.Inf(-1)); got != 0 {
		t.Errorf("Poisson(-Inf) = %d, want 0", got)
	}
	if got := New(1).Poisson(1<<53 - 1); got < 0 {
		t.Errorf("Poisson(2^53-1) = %d, want a non-negative count", got)
	}
}

// TestPoissonChiSquare checks the law, not just two moments, in the PTRS
// band that starts at mean 10: 200 000 seeded draws per mean are binned
// with tails pooled so every bin expects at least 20, and Pearson's
// statistic is held under the chi-square 1−1e-4 quantile (Wilson–Hilferty).
// A correct sampler on a fresh seed fails a given mean with probability
// about 1e-4, so the four means together with probability about 4e-4.
func TestPoissonChiSquare(t *testing.T) {
	const draws = 200_000
	for _, mean := range []float64{10, 12.5, 20, 29.9} {
		pmf := func(k int) float64 {
			lg, _ := math.Lgamma(float64(k + 1))
			return math.Exp(float64(k)*math.Log(mean) - mean - lg)
		}
		// Bins are [lo, lo+1, …, hi]; bin lo pools k ≤ lo and bin hi
		// pools k ≥ hi, each chosen as the first k whose tail expects 20.
		lo, cum := 0, pmf(0)
		for cum*draws < 20 {
			lo++
			cum += pmf(lo)
		}
		hi, upper := int(mean), 0.0
		for k := int(4 * mean); k > int(mean); k-- {
			upper += pmf(k)
			if upper*draws >= 20 {
				hi = k
				break
			}
		}
		want := make([]float64, hi-lo+1)
		want[0] = cum
		rest := 1 - cum
		for k := lo + 1; k < hi; k++ {
			want[k-lo] = pmf(k)
			rest -= pmf(k)
		}
		want[hi-lo] = rest
		counts := make([]float64, len(want))
		r := New(uint64(mean*100) + 5)
		for i := 0; i < draws; i++ {
			k := min(max(r.Poisson(mean), lo), hi)
			counts[k-lo]++
		}
		var stat float64
		for i, c := range counts {
			e := want[i] * draws
			stat += (c - e) * (c - e) / e
		}
		df := float64(len(want) - 1)
		const z = 3.719 // standard normal 1−1e-4 quantile
		h := 2 / (9 * df)
		crit := df * math.Pow(1-h+z*math.Sqrt(h), 3)
		if stat > crit {
			t.Errorf("Poisson(%g): chi-square %.1f on %g df exceeds %.1f", mean, stat, df, crit)
		}
	}
}

var poissonSink int

// BenchmarkPoisson times one draw per op below the Knuth/PTRS cutover at
// mean 10, in the band [10, 30) where hybrid leaps draw most of their
// counts, and deeper in the PTRS band.
func BenchmarkPoisson(b *testing.B) {
	for _, mean := range []float64{5, 12.5, 20, 29.9, 30, 1e3, 1e6} {
		b.Run(fmt.Sprintf("mean=%g", mean), func(b *testing.B) {
			r := New(1)
			for i := 0; i < b.N; i++ {
				poissonSink += r.Poisson(mean)
			}
		})
	}
}

var expSink float64

// BenchmarkExp times one Exp draw per op: the ziggurat's one-word fast
// path in about 97.8% of draws, the wedge and tail in the rest.
func BenchmarkExp(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		expSink += r.Exp(2.5)
	}
}

// TestPoissonGolden pins the sampler's realizations: from seed 2026, the
// first 1000 draws at means 30, 1e3, 1e6, 12.5 and 20 must equal the
// recorded ones in testdata/poisson_golden.txt, one line per mean ("MEAN
// d1 d2 …"). A rewrite of the sampler that changes any draw changes every
// hybrid realization built on it.
func TestPoissonGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/poisson_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 5 {
		t.Fatalf("golden file has %d lines, want 5", len(lines))
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		mean, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(fields) != 1001 {
			t.Fatalf("mean %g: %d draws recorded, want 1000", mean, len(fields)-1)
		}
		r := New(2026)
		for i, f := range fields[1:] {
			want, err := strconv.Atoi(f)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Poisson(mean); got != want {
				t.Fatalf("Poisson(%g) draw %d = %d, recorded %d", mean, i, got, want)
			}
		}
	}
}

// Property: Intn stays within bounds for arbitrary positive n.
func TestQuickIntnBounds(t *testing.T) {
	r := New(99)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Bernoulli respects clamped extremes.
func TestQuickBernoulliExtremes(t *testing.T) {
	r := New(77)
	f := func(p float64) bool {
		switch {
		case p <= 0:
			return !r.Bernoulli(p)
		case p >= 1:
			return r.Bernoulli(p)
		default:
			r.Bernoulli(p) // just must not panic
			return true
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Picker must be bit-identical to Categorical on a shared stream: same
// variate consumption, same index for every draw.
func TestPickerMatchesCategorical(t *testing.T) {
	weights := [][]float64{
		{1},
		{0.3, 0.7},
		{2, 0, 1, -3, 5},
		{1e-9, 1e9, 1e-9},
		{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
	}
	for _, w := range weights {
		p, err := NewPicker(w)
		if err != nil {
			t.Fatalf("NewPicker(%v): %v", w, err)
		}
		a, b := New(99), New(99)
		for i := 0; i < 10_000; i++ {
			want, err := a.Categorical(w)
			if err != nil {
				t.Fatalf("Categorical(%v): %v", w, err)
			}
			if got := p.Pick(b); got != want {
				t.Fatalf("draw %d of %v: Pick = %d, Categorical = %d", i, w, got, want)
			}
		}
		// The streams must stay in lockstep: both consumed one variate per draw.
		if a.Uint64() != b.Uint64() {
			t.Fatalf("weights %v: Picker consumed a different number of variates", w)
		}
	}
}

func TestPickerRejectsEmptyWeights(t *testing.T) {
	for _, w := range [][]float64{nil, {}, {0}, {-1, 0}} {
		if _, err := NewPicker(w); err == nil {
			t.Errorf("NewPicker(%v) accepted weights with no positive entry", w)
		}
	}
}

func TestPickerCopiesWeights(t *testing.T) {
	w := []float64{1, 1}
	p, err := NewPicker(w)
	if err != nil {
		t.Fatal(err)
	}
	w[0] = 0 // mutate after construction; the picker must be unaffected
	counts := [2]int{}
	r := New(5)
	for i := 0; i < 1000; i++ {
		counts[p.Pick(r)]++
	}
	if counts[0] < 400 || counts[1] < 400 {
		t.Errorf("mutating the source slice skewed draws: %v", counts)
	}
}

func TestPickerAllocFree(t *testing.T) {
	p, err := NewPicker([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	r := New(1)
	sink := 0
	if n := testing.AllocsPerRun(1000, func() { sink += p.Pick(r) }); n != 0 {
		t.Errorf("Pick allocates %.1f allocs/op, want 0", n)
	}
	_ = sink
}
