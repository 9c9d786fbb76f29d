package exp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fluid"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pieceset"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stability"
	"repro/internal/sweep"
)

// RunE5 measures the missing-piece-syndrome growth law: in the transient
// regime, started from a large one-club, the population grows linearly at
// slope ∆_{F−{1}} (Section VI). The stochastic slope and the fluid-limit
// slope are both compared against the branching-process prediction.
func RunE5(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "One-club growth: measured dN/dt vs predicted ∆_{F−{1}}",
		Headers: []string{"scenario", "∆ predicted", "sim slope", "fluid slope", "R²", "verdict"},
	}
	horizon := cfg.pick(60, 400)
	clubSize := cfg.pickInt(300, 1500)
	cases := []struct {
		label string
		p     model.Params
	}{
		{
			label: "K=2, λ0=8, Us=1, µ=1, γ=2",
			p: model.Params{
				K: 2, Us: 1, Mu: 1, Gamma: 2,
				Lambda: map[pieceset.Set]float64{pieceset.Empty: 8},
			},
		},
		{
			label: "K=3, λ0=6, Us=0.5, µ=1, γ=4",
			p: model.Params{
				K: 3, Us: 0.5, Mu: 1, Gamma: 4,
				Lambda: map[pieceset.Set]float64{pieceset.Empty: 6},
			},
		},
		{
			label: "K=2 gifted, λ0=9, λ{1}=0.5, Us=0.5, µ=1, γ=3",
			p: model.Params{
				K: 2, Us: 0.5, Mu: 1, Gamma: 3,
				Lambda: map[pieceset.Set]float64{
					pieceset.Empty:     9,
					pieceset.MustOf(1): 0.5,
				},
			},
		},
	}
	// The three cases run as one case-parallel sweep batch: the sharded
	// evaluation layer hands each case a stream keyed by its parameters
	// and memoizes the outcome.
	runner := &sweep.Runner{
		Evaluator: sweep.Seeded{
			Evaluator: &growthEvaluator{horizon: horizon, clubSize: clubSize},
			Seed:      cfg.seed(),
		},
		Workers: cfg.Workers,
		Sink:    cfg.Sink,
	}
	pts := make([]sweep.Point, len(cases))
	for i, cse := range cases {
		pts[i] = sweep.Point{Params: cse.p}
	}
	cells, err := runner.Points(cfg.Context, "E5/growth", pts)
	if err != nil {
		return nil, err
	}
	for i, cse := range cases {
		s := cells[i].Values
		// The slope should match ∆ within Monte-Carlo noise: accept 35%.
		ok := math.Abs(s["slope"]-s["delta"]) <= 0.35*s["delta"]
		t.AddRow(cse.label, fmtF(s["delta"]), fmtF(s["slope"]), fmtF(s["fluid_slope"]),
			fmt.Sprintf("%.3f", s["r2"]), markAgreement(ok))
	}
	t.AddNote("slopes fitted over [0, %s] from a one-club of %d peers", fmtF(horizon), clubSize)
	return t, nil
}

// growthEvaluator measures one E5 case: the stochastic one-club growth
// slope, its fluid-limit counterpart, and the predicted ∆_{F−{1}}.
type growthEvaluator struct {
	horizon  float64
	clubSize int
}

// Name implements sweep.Evaluator.
func (e *growthEvaluator) Name() string { return "e5-growth" }

// Fingerprint implements sweep.Evaluator.
func (e *growthEvaluator) Fingerprint() string {
	return fmt.Sprintf("h=%g;club=%d", e.horizon, e.clubSize)
}

// Evaluate implements sweep.Evaluator.
func (e *growthEvaluator) Evaluate(ctx context.Context, pt sweep.Point, r *rng.RNG) (sweep.Cell, error) {
	delta, err := stability.OneClubGrowthRate(pt.Params, 1)
	if err != nil {
		return sweep.Cell{}, err
	}
	if delta <= 0 {
		return sweep.Cell{}, fmt.Errorf("exp: E5 case %v is not transient (∆ = %v)", pt.Params, delta)
	}
	club := pieceset.Full(pt.Params.K).Without(1)
	sw, err := sim.New(pt.Params,
		sim.WithRNG(r),
		sim.WithInitialPeers(map[pieceset.Set]int{club: e.clubSize}))
	if err != nil {
		return sweep.Cell{}, err
	}
	n := sw.TraceSeries(0, e.horizon, e.horizon/50, 1)[0]
	set := obs.NewSet(n)
	sw.SetTap(set)
	if _, err := sw.RunUntil(e.horizon, 0); err != nil {
		return sweep.Cell{}, err
	}
	set.Seal(sw.Now())
	pts := n.Points()
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, pt := range pts {
		xs[i] = pt.T
		ys[i] = pt.V
	}
	_, slope, r2, err := dist.LinearFit(xs, ys)
	if err != nil {
		return sweep.Cell{}, err
	}

	// Fluid slope from the same initial condition.
	sys, err := fluid.New(pt.Params)
	if err != nil {
		return sweep.Cell{}, err
	}
	x0 := make([]float64, sys.Dim())
	x0[int(club)] = float64(e.clubSize)
	fl, err := sys.Integrate(x0, 0.02, int(e.horizon/0.02), int(e.horizon/0.02))
	if err != nil {
		return sweep.Cell{}, err
	}
	fluidSlope := (fl[len(fl)-1].N - fl[0].N) / (fl[len(fl)-1].T - fl[0].T)
	cell := sweep.Cell{Class: "transient", Value: slope}
	cell.SetFinite("delta", delta)
	cell.SetFinite("slope", slope)
	cell.SetFinite("fluid_slope", fluidSlope)
	cell.SetFinite("r2", r2)
	return cell, nil
}

// RunE6 re-runs the Example 1 and Example 3 stability sweeps under every
// built-in piece-selection policy: Theorem 14 predicts identical verdicts.
func RunE6(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Policy insensitivity: verdicts across piece-selection policies",
		Headers: []string{"scenario", "policy", "Theorem 14", "simulated", "verdict"},
	}
	run := cfg.runConfig(cfg.pick(150, 1000), cfg.pickInt(250, 1500), cfg.pickInt(2, 6))
	cases := []struct {
		label string
		p     model.Params
	}{
		{
			label: "Ex1 stable (λ0 = 1 < 2)",
			p: model.Params{K: 1, Us: 1, Mu: 1, Gamma: 2,
				Lambda: map[pieceset.Set]float64{pieceset.Empty: 1}},
		},
		{
			label: "Ex1 transient (λ0 = 5 > 2)",
			p: model.Params{K: 1, Us: 1, Mu: 1, Gamma: 2,
				Lambda: map[pieceset.Set]float64{pieceset.Empty: 5}},
		},
		{
			label: "Ex3 stable λ = (1,1,1)",
			p: model.Params{K: 3, Us: 0, Mu: 1, Gamma: 2,
				Lambda: map[pieceset.Set]float64{
					pieceset.MustOf(1): 1,
					pieceset.MustOf(2): 1,
					pieceset.MustOf(3): 1,
				}},
		},
		{
			label: "Ex3 transient λ = (3,0.2,0.2)",
			p: model.Params{K: 3, Us: 0, Mu: 1, Gamma: 2,
				Lambda: map[pieceset.Set]float64{
					pieceset.MustOf(1): 3,
					pieceset.MustOf(2): 0.2,
					pieceset.MustOf(3): 0.2,
				}},
		},
	}
	for _, cse := range cases {
		sys, err := core.NewSystem(cse.p)
		if err != nil {
			return nil, err
		}
		verdict := sys.Verdict()
		for _, pol := range sim.AllPolicies() {
			runPol := run
			runPol.Policy = pol
			emp, err := sys.ClassifyEmpirically(runPol)
			if err != nil {
				return nil, err
			}
			t.AddRow(cse.label, pol.Name(), verdict.String(), emp.Label(),
				markAgreement(emp.Agrees(verdict)))
		}
	}
	t.AddNote("Theorem 14: any useful piece-selection policy shares the Theorem 1 region")
	return t, nil
}
