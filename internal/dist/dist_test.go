package dist

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 {
		t.Error("empty N != 0")
	}
	for name, v := range map[string]float64{
		"mean": s.Mean(), "var": s.Var(), "std": s.Std(), "min": s.Min(), "max": s.Max(),
	} {
		if !math.IsNaN(v) {
			t.Errorf("empty %s = %v, want NaN", name, v)
		}
	}
	if s.CI95() != 0 {
		t.Error("empty CI95 != 0")
	}
	if s.String() != "n/a" {
		t.Errorf("empty String = %q", s.String())
	}
}

func TestSummaryMoments(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if !almost(s.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v", s.Mean())
	}
	// Sample variance of this classic set: population var 4, so m2 = 32,
	// unbiased var = 32/7.
	if !almost(s.Var(), 32.0/7, 1e-12) {
		t.Errorf("var = %v", s.Var())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if !strings.Contains(s.String(), "±") || !strings.Contains(s.String(), "n=8") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Error("single-sample stats wrong")
	}
	if !math.IsNaN(s.Var()) || s.CI95() != 0 {
		t.Error("single-sample spread should be NaN/0")
	}
	if !strings.Contains(s.String(), "n=1") {
		t.Errorf("String = %q", s.String())
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	var small, big Summary
	for i := 0; i < 10; i++ {
		small.Add(float64(i % 5))
	}
	for i := 0; i < 1000; i++ {
		big.Add(float64(i % 5))
	}
	if small.CI95() <= big.CI95() {
		t.Errorf("CI should shrink with n: %v vs %v", small.CI95(), big.CI95())
	}
}

// TestCI95StudentT pins the small-n Student-t critical values and the
// large-n normal limit.
func TestCI95StudentT(t *testing.T) {
	// n = 2 (df = 1): CI = 12.706·s/√2 with s = √2/√... build {0, 2}:
	// mean 1, s = √2, so CI = 12.706·√2/√2 = 12.706.
	var s Summary
	s.Add(0)
	s.Add(2)
	if !almost(s.CI95(), 12.706, 1e-9) {
		t.Errorf("n=2 CI95 = %v, want 12.706", s.CI95())
	}
	// n = 3 (df = 2): t = 4.303.
	var s3 Summary
	for _, x := range []float64{-1, 0, 1} {
		s3.Add(x)
	}
	if want := 4.303 * s3.Std() / math.Sqrt(3); !almost(s3.CI95(), want, 1e-12) {
		t.Errorf("n=3 CI95 = %v, want %v", s3.CI95(), want)
	}
	// Critical values decrease toward the normal limit, and the coarse
	// anchors are conservative: a band's value never undercuts the exact
	// critical value anywhere in the band (t is decreasing in df, so
	// anchoring at the band's low end guarantees it).
	prev := math.Inf(1)
	for _, df := range []int{1, 2, 5, 10, 30, 31, 40, 41, 60, 61, 120, 121, 1000, 100000} {
		c := TCritical95(df)
		if c > prev {
			t.Errorf("TCritical95 not monotone at df=%d: %v > %v", df, c, prev)
		}
		prev = c
	}
	if got := TCritical95(31); got != TCritical95(30) {
		t.Errorf("df=31 = %v, want the conservative t(30) anchor %v", got, TCritical95(30))
	}
	if TCritical95(100000) != 1.96 {
		t.Errorf("large-df limit = %v, want 1.96", TCritical95(100000))
	}
	if TCritical95(0) != 1.96 {
		t.Errorf("df=0 fallback = %v, want 1.96", TCritical95(0))
	}
}

func TestTimeAverageOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Observe did not panic")
		}
	}()
	var a TimeAverage
	a.Observe(5, 1)
	a.Observe(4, 2)
}

func TestTimeAverage(t *testing.T) {
	var a TimeAverage
	if !math.IsNaN(a.Value()) {
		t.Error("unobserved Value should be NaN")
	}
	a.Observe(0, 2)
	if a.Value() != 2 {
		t.Errorf("zero-span Value = %v, want last level", a.Value())
	}
	a.Observe(1, 4) // level 2 held for 1
	a.Observe(3, 0) // level 4 held for 2
	// ∫ = 2·1 + 4·2 = 10 over span 3.
	if !almost(a.Value(), 10.0/3, 1e-12) {
		t.Errorf("Value = %v", a.Value())
	}
	if a.Span() != 3 {
		t.Errorf("Span = %v", a.Span())
	}
	// Observations at the same instant replace the level without weight.
	a.Observe(3, 100)
	if !almost(a.Value(), 10.0/3, 1e-12) {
		t.Error("same-instant observation changed the average")
	}
}

func TestTimeAverageMidStreamStart(t *testing.T) {
	// The first Observe may be at t > 0 (ResetOccupancy mid-run).
	var a TimeAverage
	a.Observe(10, 5)
	a.Observe(12, 7)
	if !almost(a.Value(), 5, 1e-12) {
		t.Errorf("Value = %v, want 5 (level before last observe)", a.Value())
	}
	if a.Span() != 2 {
		t.Errorf("Span = %v", a.Span())
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	a, b, r2, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(a, 3, 1e-12) || !almost(b, 2, 1e-12) || !almost(r2, 1, 1e-12) {
		t.Errorf("fit = (%v, %v, %v)", a, b, r2)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0.1, 0.9, 2.1, 2.9}
	_, b, r2, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(b, 0.98, 0.05) {
		t.Errorf("slope = %v", b)
	}
	if r2 <= 0.99 || r2 > 1 {
		t.Errorf("r2 = %v", r2)
	}
}

func TestLinearFitFlat(t *testing.T) {
	_, b, r2, err := LinearFit([]float64{0, 1, 2}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if b != 0 || r2 != 1 {
		t.Errorf("flat fit = slope %v, r2 %v", b, r2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	cases := []struct {
		xs, ys []float64
	}{
		{[]float64{1}, []float64{1}},
		{[]float64{1, 2}, []float64{1}},
		{[]float64{2, 2, 2}, []float64{1, 2, 3}},
	}
	for _, c := range cases {
		if _, _, _, err := LinearFit(c.xs, c.ys); !errors.Is(err, ErrBadFit) {
			t.Errorf("LinearFit(%v, %v) err = %v, want ErrBadFit", c.xs, c.ys, err)
		}
	}
}
