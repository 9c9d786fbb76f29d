package markov

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/model"
)

// ErrBadInitial reports an initial state outside the truncated space.
var ErrBadInitial = errors.New("markov: initial state not in the truncated space")

// TransientDistribution computes the state distribution at a finite time t
// starting from x0, by uniformization:
//
//	P(t) = Σ_k e^{−Λt}(Λt)^k/k! · π₀·P^k
//
// truncating the Poisson sum once its remaining mass is below tail. The
// returned vector is indexed like States. This is the finite-horizon
// companion to Stationary and lets tests validate the simulator's
// *transient* behaviour exactly, not just its long-run averages.
func (c *Chain) TransientDistribution(x0 model.State, t, tail float64) ([]float64, error) {
	if t < 0 {
		return nil, errors.New("markov: negative time")
	}
	if tail <= 0 {
		tail = 1e-12
	}
	start := slices.IndexFunc(c.states, func(x model.State) bool { return slices.Equal(x, x0) })
	if start < 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadInitial, x0)
	}
	n := len(c.states)
	if c.uni == 0 || t == 0 {
		out := make([]float64, n)
		out[start] = 1
		return out, nil
	}

	cur := make([]float64, n)
	cur[start] = 1
	acc := make([]float64, n)
	next := make([]float64, n)

	// Poisson(Λt) weights accumulated iteratively to avoid overflow.
	lt := c.uni * t
	logWeight := -lt // log of e^{−Λt}·(Λt)^0/0!
	remaining := 1.0
	for k := 0; ; k++ {
		w := math.Exp(logWeight)
		remaining -= w
		for i := range acc {
			acc[i] += w * cur[i]
		}
		if remaining < tail && float64(k) > lt {
			break
		}
		if k > int(lt)+200+int(20*math.Sqrt(lt)) {
			break // safety bound: Poisson mass beyond this is negligible
		}
		c.applyP(next, cur) // next ← cur·P
		cur, next = next, cur
		logWeight += math.Log(lt) - math.Log(float64(k+1))
	}
	// Renormalize against the truncated Poisson tail.
	var sum float64
	for _, v := range acc {
		sum += v
	}
	if sum > 0 {
		for i := range acc {
			acc[i] /= sum
		}
	}
	return acc, nil
}

// MeanNAt returns E[N_t] from a transient distribution computation.
func (c *Chain) MeanNAt(x0 model.State, t float64) (float64, error) {
	dist, err := c.TransientDistribution(x0, t, 0)
	if err != nil {
		return 0, err
	}
	var mean float64
	for i, mass := range dist {
		mean += mass * float64(c.states[i].N())
	}
	return mean, nil
}
