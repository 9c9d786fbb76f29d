package markov

import (
	"errors"
	"math"
)

// ErrBadResult reports statistics requested from a malformed result.
var ErrBadResult = errors.New("markov: result does not match chain")

// OccupancyDistribution aggregates a stationary distribution into
// P{N = n} for n = 0..NMax.
func (c *Chain) OccupancyDistribution(res *StationaryResult) ([]float64, error) {
	if res == nil || len(res.Pi) != len(c.states) {
		return nil, ErrBadResult
	}
	out := make([]float64, c.nmax+1)
	for i, mass := range res.Pi {
		out[c.states[i].N()] += mass
	}
	return out, nil
}

// OccupancyQuantile returns the smallest n with P{N ≤ n} ≥ q.
func (c *Chain) OccupancyQuantile(res *StationaryResult, q float64) (int, error) {
	dist, err := c.OccupancyDistribution(res)
	if err != nil {
		return 0, err
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var cum float64
	for n, p := range dist {
		cum += p
		if cum >= q {
			return n, nil
		}
	}
	return c.nmax, nil
}

// StationarityResidual returns the sup-norm of πQ over the truncated chain,
// a direct certificate that the solved distribution satisfies global
// balance (up to truncation). Tests require this to be tiny.
func (c *Chain) StationarityResidual(res *StationaryResult) (float64, error) {
	if res == nil || len(res.Pi) != len(c.states) {
		return 0, ErrBadResult
	}
	flow := make([]float64, len(c.states))
	for i, mass := range res.Pi {
		if mass == 0 {
			continue
		}
		flow[i] -= mass * c.outRate[i]
		for k := c.start[i]; k < c.start[i+1]; k++ {
			flow[c.to[k]] += mass * c.rate[k]
		}
	}
	var sup float64
	for _, f := range flow {
		if a := math.Abs(f); a > sup {
			sup = a
		}
	}
	return sup, nil
}
