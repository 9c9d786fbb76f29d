package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sweep"
)

// Output floors of exact-solve: a solved cell agrees with the reference
// when its truncation error and its stationarity residual are both small.
const (
	maxBoundaryMass = 5e-4
	maxResidual     = 1e-6
)

// exactWorkload is exact-solve: one sweep.Runner.Points batch of a dozen
// uneven cells, each building the truncated chain (markov.Build) and
// solving it by power iteration (Chain.Stationary) with E14's settings.
type exactWorkload struct {
	in      *exactInputs
	workers int

	solved []solveOutcome // last run, by cell
}

type solveOutcome struct {
	chain *markov.Chain
	res   *markov.StationaryResult // nil when the solver did not converge
}

// solveEvaluator is the exact-solve cell evaluator. Point.X carries the
// cell index (informational, outside the cache key); the truncation level
// comes from the cell.
type solveEvaluator struct{ w *exactWorkload }

// Name implements sweep.Evaluator.
func (solveEvaluator) Name() string { return "bench-exact" }

// Fingerprint implements sweep.Evaluator.
func (e solveEvaluator) Fingerprint() string {
	return fmt.Sprintf("iters=%d;tol=%g", e.w.in.MaxIter, e.w.in.Tol)
}

// Evaluate implements sweep.Evaluator. A chain that does not converge is a
// failed cell: it stays in the batch with class "no-converge".
func (e solveEvaluator) Evaluate(ctx context.Context, pt sweep.Point, _ *rng.RNG) (sweep.Cell, error) {
	idx := int(pt.X)
	cell := e.w.in.Cells[idx]
	t := taskFrom(ctx)
	sp := t.child("markov.build", "markov")
	c, err := markov.Build(cell.Params, cell.NMax)
	sp.end()
	if err != nil {
		return sweep.Cell{}, err
	}
	sp = t.child("markov.solve", "markov")
	res, err := c.Stationary(e.w.in.MaxIter, e.w.in.Tol)
	sp.end()
	e.w.solved[idx] = solveOutcome{chain: c, res: res}
	if errors.Is(err, markov.ErrNoConverge) {
		return sweep.Cell{Class: "no-converge"}, nil
	}
	if err != nil {
		return sweep.Cell{}, err
	}
	out := sweep.Cell{Class: "stable", Value: res.MeanN}
	out.SetFinite("mean_n", res.MeanN)
	out.SetFinite("boundary_mass", res.BoundaryMass)
	return out, nil
}

func (w *exactWorkload) run(ctx context.Context, log *roundLog) (*roundResult, error) {
	res := newRoundResult()
	w.solved = make([]solveOutcome, len(w.in.Cells))
	pts := make([]sweep.Point, len(w.in.Cells))
	for i, c := range w.in.Cells {
		pts[i] = sweep.Point{Params: c.Params, X: float64(i)}
	}
	clock := log.pool("sweep.points", "sweep", "sweep.evaluate", "sweep")
	runner := &sweep.Runner{
		Evaluator: &timedEvaluator{Evaluator: solveEvaluator{w}, clock: clock},
		Workers:   w.workers,
	}
	_, err := runner.Points(ctx, "exact-solve", pts)
	clock.done()
	if err != nil {
		return nil, err
	}
	st := runner.Stats()
	c := res.counts
	c["sweep.evaluated"] = float64(st.Evaluated)
	c["sweep.cache_hits"] = float64(st.CacheHits)
	c["sweep.deduped"] = float64(st.Deduped)
	c["sweep.rounds"] = 1
	c["sweep.adaptive_ratio"] = 1
	for _, s := range w.solved {
		c["markov.states"] += float64(s.chain.NumStates())
		if s.res == nil {
			res.failed++
			continue
		}
		c["markov.iterations"] += float64(s.res.Iterations)
		c["markov.boundary_mass_max"] = math.Max(c["markov.boundary_mass_max"], s.res.BoundaryMass)
		res.work += float64(s.res.Iterations) * float64(s.chain.NumStates())
	}
	return res, nil
}

func (w *exactWorkload) check(res *roundResult) error {
	h := sha256.New()
	for i, s := range w.solved {
		res.judged++
		if s.res == nil {
			fmt.Fprintf(h, "%d no-converge\n", i)
			continue
		}
		fmt.Fprintf(h, "%d %d %d %s %s\n", i, s.chain.NumStates(), s.res.Iterations,
			strconv.FormatFloat(s.res.MeanN, 'g', -1, 64), strconv.FormatFloat(s.res.BoundaryMass, 'g', -1, 64))
		r, err := residual(s.chain, w.in.Cells[i].Params, s.res.Pi)
		if err != nil {
			return err
		}
		if s.res.BoundaryMass < maxBoundaryMass && r < maxResidual {
			res.agree++
		}
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	return nil
}

// residual returns the stationarity residual of pi on the truncated chain,
// max_j |(πQ)_j| relative to the largest probability outflow max_i π_i q_i,
// recomputed from the model's transitions independently of the solver.
func residual(c *markov.Chain, p model.Params, pi []float64) (float64, error) {
	n := c.NumStates()
	index := make(map[string]int, n)
	for i := 0; i < n; i++ {
		index[c.State(i).Key()] = i
	}
	net := make([]float64, n)
	var maxOut float64
	for i := 0; i < n; i++ {
		ts, err := p.Transitions(c.State(i))
		if err != nil {
			return 0, err
		}
		var out float64
		for _, tr := range ts {
			if tr.Next.N() > c.NMax() {
				continue // censored at the truncation boundary
			}
			j, ok := index[tr.Next.Key()]
			if !ok {
				return 0, fmt.Errorf("state %v missing from the truncated chain", tr.Next)
			}
			f := pi[i] * tr.Rate
			net[j] += f
			out += f
		}
		net[i] -= out
		maxOut = math.Max(maxOut, out)
	}
	var worst float64
	for _, v := range net {
		worst = math.Max(worst, math.Abs(v))
	}
	return worst / maxOut, nil
}
