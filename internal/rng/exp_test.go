package rng

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/golden"
)

// expDraw draws one Exp(1) variate from r and names the path that served
// it, read off the words the draw consumed: one word is the fast path; a
// first word in layer 0 (low byte 0) followed by one more is the tail; two
// words otherwise are an accepted wedge; three or more mean the first
// attempt was a rejected wedge.
func expDraw(r *RNG) (float64, string) {
	start := *r
	x := r.Exp(1)
	first := start.Uint64()
	words := 1
	for ; start != *r && words < 1000; words++ {
		start.Uint64()
	}
	switch {
	case words == 1:
		return x, "fast"
	case first&0xff == 0:
		return x, "tail"
	case words == 2:
		return x, "wedge-accepted"
	default:
		return x, "wedge-rejected"
	}
}

// TestExpChiSquare checks the law of Exp(1): 2e6 seeded draws fall into
// 1000 bins of probability 1/1000 each (bin b holds x with
// 1−e^{−x} in [b/1000, (b+1)/1000)), and Pearson's statistic is held
// under the chi-square 1−1e-4 quantile (Wilson–Hilferty), as
// TestPoissonChiSquare does. A correct sampler on a fresh seed fails with
// probability about 1e-4. The last bin is x ≥ 6.91, so the tail beyond
// expR sits inside it, and a wrong threshold in any one layer shifts mass
// between the bins that layer covers.
func TestExpChiSquare(t *testing.T) {
	const draws, bins = 2_000_000, 1000
	r := New(2027)
	counts := make([]float64, bins)
	for i := 0; i < draws; i++ {
		b := int(-math.Expm1(-r.Exp(1)) * bins)
		counts[min(b, bins-1)]++
	}
	var stat float64
	const e = float64(draws) / bins
	for _, c := range counts {
		stat += (c - e) * (c - e) / e
	}
	const df = bins - 1
	const z = 3.719 // standard normal 1−1e-4 quantile
	h := 2.0 / (9 * df)
	crit := df * math.Pow(1-h+z*math.Sqrt(h), 3)
	if stat > crit {
		t.Errorf("Exp(1): chi-square %.1f on %d df exceeds %.1f", stat, df, crit)
	}
}

// TestExpTail checks how often the tail branch fires. Only the tail
// returns x ≥ expR, and it must do so with probability e^{−expR} ≈
// 4.54e-4 per draw. Over 2e6 draws the count is binomial with mean 908
// and standard deviation 30; it must lie within 4 standard deviations,
// which a correct sampler misses with probability about 6e-5. The excess
// over expR must have mean 1 within 4 standard errors.
func TestExpTail(t *testing.T) {
	const draws = 2_000_000
	r := New(2028)
	var tail, excess float64
	for i := 0; i < draws; i++ {
		if x := r.Exp(1); x >= expR {
			tail++
			excess += x - expR
		}
	}
	p := math.Exp(-expR)
	mean, sd := draws*p, math.Sqrt(draws*p*(1-p))
	if math.Abs(tail-mean) > 4*sd {
		t.Errorf("tail fired %g times in %d draws, want %.1f ± %.1f", tail, draws, mean, 4*sd)
	}
	if m := excess / tail; math.Abs(m-1) > 4/math.Sqrt(tail) {
		t.Errorf("mean tail excess %.4f over %g tail draws, want 1", m, tail)
	}
}

// TestExpFirstDraw pins which path the first Exp draw takes from each of
// a few seeds. internal/kernel's TestKernelStepDrawCount steps its kernel
// at these seeds, so this table is what makes its randomness budget cover
// every path of the sampler.
func TestExpFirstDraw(t *testing.T) {
	for seed, want := range map[uint64]string{
		1: "fast", 11: "fast", 12345: "fast",
		10: "wedge-accepted", 22: "wedge-rejected", 711: "tail",
	} {
		if _, got := expDraw(New(seed)); got != want {
			t.Errorf("seed %d: first Exp draw took the %s path, want %s", seed, got, want)
		}
	}
}

// TestExpGolden pins the sampler's realizations: from seeds 9 and 14, the
// first 500 Exp(1) draws must equal the ones recorded in
// testdata/exp_golden.txt, one line per seed ("SEED d1 d2 …", shortest
// round-trip form), and the same stream at rate 2.5 must give each draw
// divided by 2.5. Both seeds' draws cover the fast path, the tail, an
// accepted wedge and a rejected wedge, which the test asserts. A rewrite
// that changes any draw changes every kernel-backed realization. The
// draws are exact only where the host's arithmetic is the recording
// host's (golden.Unpinned): the tail calls math.Log, and the wedge test's
// multiply-add may be fused elsewhere, so there a draw need only match
// within 1e-12 relative.
func TestExpGolden(t *testing.T) {
	same := func(a, b float64) bool { return a == b }
	if why := golden.Unpinned(); why != "" {
		t.Logf("draws compared at 1e-12 relative: %s", why)
		same = func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Abs(b) }
	}
	data, err := os.ReadFile("testdata/exp_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("golden file has %d lines, want 2", len(lines))
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		seed, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(fields) != 501 {
			t.Fatalf("seed %d: %d draws recorded, want 500", seed, len(fields)-1)
		}
		r, scaled := New(seed), New(seed)
		seen := map[string]bool{}
		for i, f := range fields[1:] {
			want, err := strconv.ParseFloat(f, 64)
			if err != nil {
				t.Fatal(err)
			}
			got, branch := expDraw(r)
			seen[branch] = true
			if !same(got, want) {
				t.Fatalf("seed %d: Exp(1) draw %d = %v, recorded %v", seed, i, got, want)
			}
			if s := scaled.Exp(2.5); s != got/2.5 {
				t.Fatalf("seed %d: Exp(2.5) draw %d = %v, want %v", seed, i, s, got/2.5)
			}
		}
		for _, b := range []string{"fast", "tail", "wedge-accepted", "wedge-rejected"} {
			if !seen[b] {
				t.Errorf("seed %d: no draw took the %s path", seed, b)
			}
		}
	}
}

// expTables recomputes the ziggurat tables from Marsaglia and Tsang's
// recurrence, as documented in exptables.go.
func expTables() (k [256]uint64, w, f [256]float64) {
	const m = 1 << 53
	q := expV / math.Exp(-expR)
	k[0] = uint64(expR / q * m)
	w[0] = q / m
	f[0] = 1
	x := expR
	w[255] = x / m
	f[255] = math.Exp(-x)
	for i := 255; i > 1; i-- {
		prev := -math.Log(expV/x + math.Exp(-x))
		k[i] = uint64(prev / x * m)
		x = prev
		w[i-1] = x / m
		f[i-1] = math.Exp(-x)
	}
	return k, w, f
}

// ulps returns how many float64 steps apart a and b are (both positive).
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	return max(x, y) - min(x, y)
}

// TestExpTables checks the literal tables. Where the host's math.Exp is
// the recording host's (golden.Unpinned), the recurrence recomputed here
// must match them within 2 ulp in expW and expF, and within 3 units
// (2 ulp of the ratio plus truncation) in expK. Elsewhere 1e-13 relative
// is the bound: the recurrence runs downward from expR and amplifies a
// 1-ulp difference in one math.Exp by up to 1/x_i per step, which came to
// 153 ulp at layer 1 with GODEBUG=cpu.fma=off. That drift is why the
// tables are literals. On every host each layer must have area
// expV = 3.949659822581572e-3, the base strip as expR·e^{−expR} plus the
// tail mass e^{−expR}.
func TestExpTables(t *testing.T) {
	k, w, f := expTables()
	near := func(a, b float64) bool { return ulps(a, b) <= 2 }
	kTol := uint64(3)
	if why := golden.Unpinned(); why != "" {
		t.Logf("tables compared at 1e-13 relative: %s", why)
		near = func(a, b float64) bool { return math.Abs(a/b-1) <= 1e-13 }
		kTol = 900 // 1e-13 of 2^53
	}
	for i := range k {
		if d := max(k[i], expK[i]) - min(k[i], expK[i]); d > kTol {
			t.Errorf("expK[%d] = %#x, recurrence gives %#x", i, expK[i], k[i])
		}
		if !near(w[i], expW[i]) {
			t.Errorf("expW[%d] = %v, recurrence gives %v (%d ulp)", i, expW[i], w[i], ulps(w[i], expW[i]))
		}
		if !near(f[i], expF[i]) {
			t.Errorf("expF[%d] = %v, recurrence gives %v (%d ulp)", i, expF[i], f[i], ulps(f[i], expF[i]))
		}
	}
	if expV != 3.949659822581572e-3 {
		t.Fatalf("expV = %v", expV)
	}
	// The recurrence runs downward from expR, so the top layers carry the
	// accumulated round-off: layer 1's area is off by 1.4e-12 relative.
	const tol = 1e-11
	if a := (expR + 1) * expF[255]; math.Abs(a/expV-1) > tol {
		t.Errorf("base strip area %v, want %v", a, expV)
	}
	for i := 1; i < 256; i++ {
		if a := expW[i] * (1 << 53) * (expF[i-1] - expF[i]); math.Abs(a/expV-1) > tol {
			t.Errorf("layer %d area %v, want %v", i, a, expV)
		}
	}
}
