package dist

import (
	"fmt"
	"math"
	"sort"
)

// P2 estimates one quantile of a stream in O(1) memory using the P²
// algorithm (Jain & Chlamtac, CACM 1985): five markers track the minimum,
// the target quantile, the two midpoints, and the maximum; marker heights
// are nudged by a piecewise-parabolic update as observations arrive. Until
// five observations have been seen the estimator is exact (it sorts the
// buffer). The update is deterministic in the observation order, so feeding
// replica outcomes in replica order keeps experiment tables byte-identical
// across worker counts. The zero value is not usable; construct with NewP2.
type P2 struct {
	p     float64
	n     int
	q     [5]float64 // marker heights
	pos   [5]float64 // marker positions (1-based)
	want  [5]float64 // desired positions
	dwant [5]float64 // desired-position increments per observation
}

// NewP2 builds an estimator for the p-quantile, 0 < p < 1 (p = 0.5 is the
// median). It panics on a p outside the open unit interval.
func NewP2(p float64) *P2 {
	if !(p > 0 && p < 1) {
		panic(fmt.Sprintf("dist: P2 quantile p=%v outside (0,1)", p))
	}
	e := &P2{p: p}
	e.dwant = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// P returns the target quantile.
func (e *P2) P() float64 { return e.p }

// N returns the number of observations.
func (e *P2) N() int { return e.n }

// Observe incorporates one observation.
func (e *P2) Observe(x float64) {
	if e.n < 5 {
		e.q[e.n] = x
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
			for i := range e.pos {
				e.pos[i] = float64(i + 1)
				e.want[i] = 1 + 4*e.dwant[i]
			}
		}
		return
	}
	e.n++
	// Find the marker cell containing x, extending the extremes, and shift
	// every marker above it. The chain's order is the algorithm's: the
	// extremes first, then the cells bottom up; a NaN fails every ordered
	// comparison and lands in the top cell without moving the maximum.
	q, pos := &e.q, &e.pos
	switch {
	case x < q[0]:
		q[0] = x
		pos[1]++
		pos[2]++
		pos[3]++
	case x >= q[4]:
		q[4] = x
	case x < q[1]:
		pos[1]++
		pos[2]++
		pos[3]++
	case x < q[2]:
		pos[2]++
		pos[3]++
	case x < q[3]:
		pos[3]++
	}
	pos[4]++
	// Only the interior desired positions are read: the extremes' desired
	// positions are 1 and n, where their markers always sit.
	for i := 1; i <= 3; i++ {
		e.want[i] += e.dwant[i]
	}
	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - pos[i]
		if !(d >= 1 && pos[i+1]-pos[i] > 1) && !(d <= -1 && pos[i-1]-pos[i] < -1) {
			continue
		}
		s := 1.0
		if d < 0 {
			s = -1.0
		}
		// Piecewise-parabolic prediction; the linear one toward the
		// neighbour in the direction of travel when the parabola overshoots.
		h := q[i] + s/(pos[i+1]-pos[i-1])*
			((pos[i]-pos[i-1]+s)*(q[i+1]-q[i])/(pos[i+1]-pos[i])+
				(pos[i+1]-pos[i]-s)*(q[i]-q[i-1])/(pos[i]-pos[i-1]))
		if !(q[i-1] < h && h < q[i+1]) {
			j := i + 1
			if s < 0 {
				j = i - 1
			}
			h = q[i] + s*(q[j]-q[i])/(pos[j]-pos[i])
		}
		q[i] = h
		pos[i] += s
	}
}

// Value returns the current quantile estimate. With fewer than five
// observations it is the exact sample quantile (nearest-rank with linear
// interpolation); with none it returns NaN — represented as 0 by callers
// that must serialize, so check N first.
func (e *P2) Value() float64 {
	switch {
	case e.n == 0:
		return math.NaN()
	case e.n < 5:
		buf := make([]float64, e.n)
		copy(buf, e.q[:e.n])
		sort.Float64s(buf)
		return exactQuantile(buf, e.p)
	default:
		return e.q[2]
	}
}

// exactQuantile returns the p-quantile of a sorted sample by linear
// interpolation between closest ranks (the "R-7" convention). Tests use it
// as the ground truth for the P² tolerance checks.
func exactQuantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	h := p * float64(len(sorted)-1)
	lo := int(h)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := h - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// ExactQuantile returns the p-quantile of the sample (which it sorts in
// place) by the same convention P2 converges to; it is the small-n exact
// companion used for cross-checks.
func ExactQuantile(sample []float64, p float64) float64 {
	sort.Float64s(sample)
	return exactQuantile(sample, p)
}
