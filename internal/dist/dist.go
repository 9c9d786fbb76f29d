// Package dist provides the small statistical toolkit shared by the
// simulators and the experiment harness: streaming scalar summaries
// (Welford mean/variance with Student-t confidence intervals), streaming
// quantile estimation (the P² algorithm, fixed memory), time-weighted
// averages of piecewise-constant signals, and ordinary least-squares line
// fitting for growth-rate measurements.
//
// Everything here is deterministic and allocation-light; Summary and
// TimeAverage are usable as zero values so simulators can embed them
// directly.
package dist

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadFit reports a degenerate regression input (fewer than two points or
// zero variance in x).
var ErrBadFit = errors.New("dist: degenerate linear fit")

// Summary accumulates a streaming scalar sample using Welford's algorithm.
// The zero value is an empty summary ready for use. It is not safe for
// concurrent use.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (NaN when empty).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Var returns the unbiased sample variance (NaN with fewer than two
// observations).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation (NaN with fewer than two
// observations).
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (NaN when empty).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation (NaN when empty).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// tCrit95 holds the two-sided Student-t critical values t_{0.975,df} for
// df = 1..30 (Abramowitz & Stegun table 26.10), indexed by df-1.
var tCrit95 = [30]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom: an exact table lookup for df ≤ 30, then coarse
// anchors taken at the LOW end of each band (t(30), t(40), t(60), t(120))
// so intermediate df get a slightly wider — conservative — interval, never
// a narrower one, approaching the normal limit 1.96 from above (the
// shortfall past df = 1000 is under 0.2%). Non-positive df (no spread
// information at all) returns the normal value.
func TCritical95(df int) float64 {
	switch {
	case df <= 0:
		return 1.96
	case df <= 30:
		return tCrit95[df-1]
	case df <= 40:
		return 2.042 // t(30)
	case df <= 60:
		return 2.021 // t(40)
	case df <= 120:
		return 2.000 // t(60)
	case df <= 1000:
		return 1.980 // t(120)
	default:
		return 1.96
	}
}

// CI95 returns the half-width of the 95% confidence interval for the mean
// (0 with fewer than two observations), using the Student-t critical value
// for the sample's n−1 degrees of freedom. Small replica pools — the
// experiment tables run 3–16 replicas — get the honest, wider interval
// (t ≈ 4.30 at n = 3) instead of the 1.96 normal approximation, which
// converges back as n grows.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return TCritical95(s.n-1) * s.Std() / math.Sqrt(float64(s.n))
}

// String renders "mean ± ci (n=…)" for table cells.
func (s *Summary) String() string {
	if s.n == 0 {
		return "n/a"
	}
	if s.n == 1 {
		return fmt.Sprintf("%.4g (n=1)", s.mean)
	}
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.mean, s.CI95(), s.n)
}

// TimeAverage accumulates the time-weighted average of a piecewise-constant
// signal observed at event times. The zero value is empty; the first
// Observe establishes the starting time and level, and each subsequent
// Observe charges the previous level for the elapsed interval. Time must be
// non-decreasing.
type TimeAverage struct {
	started  bool
	lastT    float64
	lastV    float64
	weighted float64 // ∫ v dt so far
	span     float64 // total elapsed time
}

// Observe records that the signal has value v from time t onward. Time must
// be non-decreasing; an out-of-order timestamp is an invariant violation in
// the caller's event loop and panics rather than silently corrupting the
// average (matching the arrival/policy invariant panics in the simulators).
func (a *TimeAverage) Observe(t, v float64) {
	if a.started && t < a.lastT {
		panic(fmt.Sprintf("dist: TimeAverage.Observe out of order: t=%v < last=%v", t, a.lastT))
	}
	if a.started && t > a.lastT {
		dt := t - a.lastT
		a.weighted += a.lastV * dt
		a.span += dt
	}
	a.started = true
	a.lastT = t
	a.lastV = v
}

// Started reports whether any observation has been recorded; callers that
// lazily anchor the average at a run's start (the hybrid backend) use it to
// observe the initial level exactly once.
func (a *TimeAverage) Started() bool { return a.started }

// Value returns the time-weighted average over the observed span. Before
// any time has elapsed it returns the most recent level (NaN if nothing was
// observed), so short runs still report a sensible occupancy.
func (a *TimeAverage) Value() float64 {
	if a.span > 0 {
		return a.weighted / a.span
	}
	if a.started {
		return a.lastV
	}
	return math.NaN()
}

// Span returns the total elapsed time covered by the average.
func (a *TimeAverage) Span() float64 { return a.span }

// LinearFit performs ordinary least squares y = a + b·x and returns the
// intercept, slope, and coefficient of determination R². It errors when
// fewer than two points are given or the xs are all identical.
func LinearFit(xs, ys []float64) (intercept, slope, r2 float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, 0, fmt.Errorf("%w: len(xs)=%d len(ys)=%d", ErrBadFit, len(xs), len(ys))
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("%w: %d points", ErrBadFit, len(xs))
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, fmt.Errorf("%w: zero variance in x", ErrBadFit)
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		// A perfectly flat target is fit exactly by the flat line.
		return intercept, slope, 1, nil
	}
	r2 = sxy * sxy / (sxx * syy)
	return intercept, slope, r2, nil
}
