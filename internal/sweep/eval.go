package sweep

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/rng"
	"repro/internal/stability"
)

// Theory classifies points exactly under Theorem 1 (stability.Classify).
// It is deterministic and consumes no randomness, so its cells cache
// across sweeps and seeds.
type Theory struct{}

// Name implements Evaluator.
func (Theory) Name() string { return "theory" }

// Fingerprint implements Evaluator.
func (Theory) Fingerprint() string { return "v1" }

// Evaluate implements Evaluator: Class is the Theorem 1 verdict, Value the
// stability margin (0 when the margin is infinite, as in the γ ≤ µ
// branch; the finite value is also under Values["margin"]).
func (Theory) Evaluate(ctx context.Context, pt Point, r *rng.RNG) (Cell, error) {
	a, err := stability.Classify(pt.Params)
	if err != nil {
		return Cell{}, err
	}
	cell := Cell{Class: a.Verdict.String()}
	cell.SetFinite("margin", a.Margin)
	cell.Value = cell.Values["margin"]
	return cell, nil
}

// Seeded wraps an evaluator, folding a base seed into its cache identity
// so memoized cells from one seed are never reused under another.
type Seeded struct {
	Evaluator
	Seed uint64
}

// Fingerprint implements Evaluator.
func (s Seeded) Fingerprint() string {
	return fmt.Sprintf("%s;seed=%d", s.Evaluator.Fingerprint(), s.Seed)
}

// Empirical classifies points by Monte-Carlo sample paths through
// core.ClassifyEmpirically: Class is "grows" or "bounded", mirroring the
// simulated columns of the experiment tables. Each cell runs its replicas
// serially — the sweep is already parallel at cell granularity.
type Empirical struct {
	// Horizon is the simulated time per replica (required).
	Horizon float64
	// PeerCap stops a replica early when the population reaches it
	// (required); hitting it marks the replica as growing.
	PeerCap int
	// Replicas is the number of sample paths per cell (default 3).
	Replicas int
}

// Name implements Evaluator.
func (e *Empirical) Name() string { return "empirical" }

// Fingerprint implements Evaluator.
func (e *Empirical) Fingerprint() string {
	return fmt.Sprintf("h=%s;cap=%d;rep=%d", fnum(e.Horizon), e.PeerCap, replicas(e.Replicas))
}

// Evaluate implements Evaluator.
func (e *Empirical) Evaluate(ctx context.Context, pt Point, r *rng.RNG) (Cell, error) {
	return classifyCell(ctx, pt, r, e.Horizon, e.PeerCap, e.Replicas, (*core.System).ClassifyEmpirically)
}

// Hybrid classifies points by Monte-Carlo sample paths on the adaptive
// multi-regime backend (core.ClassifyHybrid): the same grows/bounded
// verdicts as Empirical, at a fraction of the cost once populations are
// large. Points with an active scenario are rejected with an error
// wrapping hybrid.ErrScenario — tau-leaping aggregates the stationary
// rates.
type Hybrid struct {
	// Horizon is the simulated time per replica (required).
	Horizon float64
	// PeerCap stops a replica early when the population reaches it
	// (required); hitting it marks the replica as growing.
	PeerCap int
	// Replicas is the number of sample paths per cell (default 3).
	Replicas int
	// Config tunes the regime thresholds (zero value = defaults).
	Config hybrid.Config
}

// Name implements Evaluator.
func (e *Hybrid) Name() string { return "hybrid" }

// Fingerprint implements Evaluator: the regime thresholds are part of the
// cache identity — cells leaped under one band must never satisfy a sweep
// asking for another.
func (e *Hybrid) Fingerprint() string {
	return fmt.Sprintf("h=%s;cap=%d;rep=%d;%s", fnum(e.Horizon), e.PeerCap, replicas(e.Replicas), e.Config.Fingerprint())
}

// Evaluate implements Evaluator.
func (e *Hybrid) Evaluate(ctx context.Context, pt Point, r *rng.RNG) (Cell, error) {
	return classifyCell(ctx, pt, r, e.Horizon, e.PeerCap, e.Replicas,
		func(sys *core.System, cfg core.RunConfig) (core.Empirical, error) {
			return sys.ClassifyHybrid(cfg, e.Config)
		})
}

// replicas applies the Monte-Carlo evaluators' default of 3 sample paths
// per cell.
func replicas(n int) int {
	if n <= 0 {
		return 3
	}
	return n
}

// classifyCell is the one cell body of the Monte-Carlo evaluators: seed the
// cell's replicas from r, classify pt through classify on one worker, and
// render the verdict: Value is the mean final population of a growing
// cell, else the mean occupancy.
func classifyCell(ctx context.Context, pt Point, r *rng.RNG, horizon float64, peerCap, reps int,
	classify func(*core.System, core.RunConfig) (core.Empirical, error)) (Cell, error) {
	sys, err := core.NewSystem(pt.Params)
	if err != nil {
		return Cell{}, err
	}
	seed := r.Uint64()
	if seed == 0 {
		seed = 1
	}
	emp, err := classify(sys, core.RunConfig{
		Horizon:  horizon,
		PeerCap:  peerCap,
		Replicas: replicas(reps),
		Seed:     seed,
		Scenario: pt.Scenario,
		Workers:  1,
		Context:  ctx,
	})
	if err != nil {
		return Cell{}, err
	}
	cell := Cell{Class: emp.Label()}
	cell.SetFinite("grow_fraction", emp.GrowFraction)
	cell.SetFinite("final_n", emp.MeanFinalN)
	cell.SetFinite("occupancy", emp.MeanOccupancy)
	if emp.Grew {
		cell.Value = emp.MeanFinalN
	} else if !math.IsNaN(emp.MeanOccupancy) {
		cell.Value = emp.MeanOccupancy
	}
	return cell, nil
}
