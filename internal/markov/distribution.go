package markov

import (
	"errors"
	"math"
)

// ErrBadResult reports statistics requested from a malformed result.
var ErrBadResult = errors.New("markov: result does not match chain")

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
