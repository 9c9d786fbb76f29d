// Package markov solves the model's CTMC exactly on a truncated state
// space: it enumerates every state reachable from empty with at most NMax
// peers, censors arrivals at the truncation boundary, and computes the
// stationary distribution by uniformized power iteration. For stable
// configurations with small K this yields E[N] to solver precision, which
// experiment E10 uses to validate the event-driven simulator.
package markov

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/model"
)

// Errors reported by the solver.
var (
	ErrTooLarge   = errors.New("markov: truncated state space exceeds the limit")
	ErrNoConverge = errors.New("markov: power iteration did not converge")
	ErrBadNMax    = errors.New("markov: NMax must be positive")
)

// MaxStates caps the truncated space to keep the solver laptop-friendly.
const MaxStates = 2_000_000

// Chain is a truncated continuous-time Markov chain of the model.
type Chain struct {
	nmax   int
	states []model.State // index → state (states[0] is empty)
	// Q's off-diagonal entries in compressed sparse rows: the censored
	// transitions out of state i are to[start[i]:start[i+1]] at the rates
	// rate[start[i]:start[i+1]], in the model's transition order.
	start []int32
	to    []int32
	rate  []float64
	// outRate[i] is the total out-rate q_i of state i (after censoring).
	outRate []float64
	// uni is the uniformization constant Λ, strictly above every q_i.
	uni float64
	// Pᵀ for P = I + Q/Λ in fixed-width rows (ELLPACK): row j holds, at
	// j·width, the entries (inFrom, inProb) = (i, P_ij) for the diagonal
	// i = j and for every transition i → j, in ascending i, then padding
	// of weight 0 from state 0. width is the largest in-degree (diagonal
	// included) rounded up to a multiple of 4.
	width  int
	inFrom []int32
	inProb []float64
}

// Build enumerates the reachable truncated space via breadth-first search
// from the empty state. Arrival transitions that would push the population
// beyond nmax are censored (dropped), the standard reflecting truncation.
// It then fixes Λ and lays out the transposed uniformized matrix that
// Stationary and TransientDistribution sweep.
func Build(p model.Params, nmax int) (*Chain, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("markov: %w", err)
	}
	if nmax <= 0 {
		return nil, ErrBadNMax
	}
	c := &Chain{nmax: nmax}
	// The key → index map serves the search only; dropping it with the
	// search keeps a solved chain's footprint to its states and matrices.
	index := make(map[string]int)
	addState := func(x model.State) int {
		index[x.Key()] = len(c.states)
		c.states = append(c.states, x)
		return len(c.states) - 1
	}
	addState(model.NewState(p.K))
	for head := 0; head < len(c.states); head++ {
		x := c.states[head]
		ts, err := p.Transitions(x)
		if err != nil {
			return nil, err
		}
		c.start = append(c.start, int32(len(c.to)))
		var total float64
		for _, tr := range ts {
			if tr.Next.N() > nmax {
				continue // censored arrival at the boundary
			}
			idx, ok := index[tr.Next.Key()]
			if !ok {
				if len(c.states) >= MaxStates {
					return nil, fmt.Errorf("%w: more than %d states", ErrTooLarge, MaxStates)
				}
				idx = addState(tr.Next)
			}
			c.to = append(c.to, int32(idx))
			c.rate = append(c.rate, tr.Rate)
			total += tr.Rate
		}
		c.outRate = append(c.outRate, total)
	}
	c.start = append(c.start, int32(len(c.to)))
	c.layoutP()
	return c, nil
}

// layoutP fixes Λ = 1.05·max_i q_i and fills the fixed-width rows of Pᵀ.
// Visiting sources in ascending order keeps each row sorted by source,
// with the diagonal at its own position.
func (c *Chain) layoutP() {
	n := len(c.states)
	for _, r := range c.outRate {
		if r > c.uni {
			c.uni = r
		}
	}
	c.uni *= 1.05
	fill := make([]int32, n) // entries placed so far in each row
	for _, j := range c.to {
		fill[j]++
	}
	for _, d := range fill {
		c.width = max(c.width, int(d)+1) // +1: the diagonal
	}
	c.width = (c.width + 3) &^ 3
	c.inFrom = make([]int32, n*c.width)
	c.inProb = make([]float64, n*c.width)
	clear(fill)
	put := func(j, i int32, prob float64) {
		k := int(j)*c.width + int(fill[j])
		c.inFrom[k], c.inProb[k] = i, prob
		fill[j]++
	}
	for i := range int32(n) {
		stay := 1.0 // P = I on a chain without transitions
		if c.uni > 0 {
			stay = 1 - c.outRate[i]/c.uni
		}
		put(i, i, stay)
		for k := c.start[i]; k < c.start[i+1]; k++ {
			put(c.to[k], i, c.rate[k]/c.uni)
		}
	}
}

// applyP sets dst = src·P for the uniformized P = I + Q/Λ and returns the
// sum of dst. It gathers each dst entry from its fixed-width row of Pᵀ:
// every row has the same trip count, so the inner loop is four products
// per step with no branch, and its three-index chunks leave a bounds check
// only on the src loads.
func (c *Chain) applyP(dst, src []float64) (sum float64) {
	w := c.width
	from, prob := c.inFrom, c.inProb
	o := 0
	for j := range dst {
		var acc float64
		for end := o + w; o < end; o += 4 {
			f := from[o : o+4 : o+4]
			p := prob[o : o+4 : o+4]
			acc += (src[f[0]]*p[0] + src[f[1]]*p[1]) + (src[f[2]]*p[2] + src[f[3]]*p[3])
		}
		dst[j] = acc
		sum += acc
	}
	return sum
}

// NumStates returns the size of the truncated space.
func (c *Chain) NumStates() int { return len(c.states) }

// NMax returns the truncation level.
func (c *Chain) NMax() int { return c.nmax }

// State returns the state at an index (shared slice; callers must not
// mutate).
func (c *Chain) State(i int) model.State { return c.states[i] }

// StationaryResult carries the solved distribution and derived statistics.
type StationaryResult struct {
	// Pi is the stationary probability of each state index.
	Pi []float64
	// MeanN is E[N] under Pi.
	MeanN float64
	// MeanSeeds is E[x_F] under Pi.
	MeanSeeds float64
	// BoundaryMass is P{N = NMax}: the truncation error indicator. Results
	// are trustworthy only when this is small.
	BoundaryMass float64
	// Iterations used by the power method.
	Iterations int
}

// Stationary computes the stationary distribution by power iteration on the
// uniformized transition matrix P = I + Q/Λ.
func (c *Chain) Stationary(maxIter int, tol float64) (*StationaryResult, error) {
	if maxIter <= 0 {
		maxIter = 200000
	}
	if tol <= 0 {
		tol = 1e-12
	}
	if c.uni == 0 {
		return nil, errors.New("markov: degenerate chain with no transitions")
	}
	pi := make([]float64, len(c.states))
	pi[0] = 1
	next := make([]float64, len(c.states))
	var iter int
	for iter = 0; iter < maxIter; iter++ {
		// Normalize against drift and measure the sup-norm change.
		inv := 1 / c.applyP(next, pi)
		var diff float64
		for i := range next {
			next[i] *= inv
			d := math.Abs(next[i] - pi[i])
			if d > diff { // a plain compare: the max builtin made Stationary 1.4–1.6× slower (DESIGN.md)
				diff = d
			}
		}
		pi, next = next, pi
		if diff < tol {
			break
		}
	}
	if iter == maxIter {
		return nil, ErrNoConverge
	}
	res := &StationaryResult{Pi: pi, Iterations: iter}
	fullIdx := len(c.states[0]) - 1
	for i, mass := range pi {
		st := c.states[i]
		nPeers := st.N()
		res.MeanN += mass * float64(nPeers)
		res.MeanSeeds += mass * float64(st[fullIdx])
		if nPeers == c.nmax {
			res.BoundaryMass += mass
		}
	}
	return res, nil
}
