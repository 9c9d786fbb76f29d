package exp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/pieceset"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stability"
	"repro/internal/sweep"
)

// RunE14 studies the approach to the stability boundary: Theorem 1
// guarantees E[N] < ∞ strictly inside the region, but says nothing about
// its growth as the margin shrinks. Using the exact truncated solver we
// measure E[N] as λ0 ↗ λ0* for Example 1 and verify the blow-up (each
// margin halving should roughly double the occupancy, the usual heavy-
// traffic 1/margin scaling), alongside the critical-scale and critical-γ
// finders that locate the boundary itself.
func RunE14(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "Approach to the boundary: E[N] blow-up and boundary finders",
		Headers: []string{"measurement", "prediction", "measured", "verdict"},
	}
	base := model.Params{
		K: 1, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}

	// Boundary finders against the closed form λ0* = 2, γ* = 2µ at λ0 = 2Us.
	scale, err := stability.CriticalScale(base)
	if err != nil {
		return nil, err
	}
	t.AddRow("critical scale from λ0=1", "2 (closed form)", fmtF(scale),
		markAgreement(absRel(scale, 2) < 1e-6))
	gPoint := base
	gPoint.Lambda = map[pieceset.Set]float64{pieceset.Empty: 2}
	gCrit, err := stability.CriticalGamma(gPoint)
	if err != nil {
		return nil, err
	}
	t.AddRow("critical γ at λ0=2·U_s", "2µ (closed form)", fmtF(gCrit),
		markAgreement(absRel(gCrit, 2) < 1e-6))

	// E[N] blow-up as the margin to the threshold 2 halves, scanned as one
	// sweep batch: the exact-solver cells run case-parallel through the
	// sharded evaluation layer and memoize like any other sweep cell. The
	// nearest margin needs ~10^6 uniformized iterations, so quick mode
	// stops at margin 0.5.
	margins := []float64{1, 0.5}
	if !cfg.Quick {
		margins = append(margins, 0.25)
	}
	pts := make([]sweep.Point, len(margins))
	for i, m := range margins {
		p := base
		p.Lambda = map[pieceset.Set]float64{pieceset.Empty: 2 - m}
		pts[i] = sweep.Point{Params: p, X: m}
	}
	runner := &sweep.Runner{Evaluator: exactOccupancy{}, Workers: cfg.Workers, Sink: cfg.Sink}
	cells, err := runner.Points(cfg.Context, "E14/margins", pts)
	if err != nil {
		return nil, err
	}
	prev := 0.0
	for i, m := range margins {
		meanN := cells[i].Value
		cell := fmt.Sprintf("E[N] = %s (boundary mass %.1e)", fmtF(meanN), cells[i].Values["boundary_mass"])
		verdict := "informational"
		if i > 0 {
			ratio := meanN / prev
			// Blow-up per margin halving: between the M/M/1-like 2× and a
			// conservative 4.5× bound.
			verdict = markAgreement(ratio > 1.5 && ratio < 4.5)
			cell += fmt.Sprintf(", ×%s vs previous", fmtF(ratio))
		}
		t.AddRow(fmt.Sprintf("margin %s (λ0 = %s)", fmtF(m), fmtF(2-m)),
			"E[N] blows up toward the boundary", cell, verdict)
		prev = meanN
	}

	// Sojourn time via Little at the widest margin, cross-checked against
	// the per-peer view through the type-count simulator occupancy.
	p := base
	p.Lambda = map[pieceset.Set]float64{pieceset.Empty: 1}
	sys, err := core.NewSystem(p)
	if err != nil {
		return nil, err
	}
	res, err := sys.ExactStationary(60)
	if err != nil {
		return nil, err
	}
	sw, err := sys.NewSwarm(sim.WithSeed(cfg.seed()))
	if err != nil {
		return nil, err
	}
	horizon := cfg.pick(5000, 30000)
	if _, err := sw.RunUntil(horizon/10, 0); err != nil {
		return nil, err
	}
	meanN, se, err := batchedMeanPeers(sw, horizon)
	if err != nil {
		return nil, err
	}
	little, seT := sys.MeanSojournTime(meanN), sys.MeanSojournTime(se)
	exact := sys.MeanSojournTime(res.MeanN)
	t.AddRow("mean sojourn E[T] (Little)", fmtF(exact), fmtF(little)+" ± "+fmtF(seT),
		markAgreement(math.Abs(little-exact) <= occT*seT))
	t.AddNote("E[N] from the exact truncated solver; heavy-traffic factor checked per margin halving")
	t.AddNote("E[T] ± batch-means SE over %d slices; agree within %g·SE (two-sided 0.1%% false-failure rate)", occBatches, occT)
	return t, nil
}

// exactOccupancy is the E14 sweep evaluator: stationary E[N] from the
// exact truncated solver, with the truncation level sized to the margin
// (pt.X) so the boundary mass stays negligible.
type exactOccupancy struct{}

// Name implements sweep.Evaluator.
func (exactOccupancy) Name() string { return "e14-exact" }

// Fingerprint implements sweep.Evaluator.
func (exactOccupancy) Fingerprint() string { return "iters=2e6;eps=1e-10" }

// Evaluate implements sweep.Evaluator.
func (exactOccupancy) Evaluate(ctx context.Context, pt sweep.Point, r *rng.RNG) (sweep.Cell, error) {
	// Truncation level sized to the margin 2 − λ_total, a pure function of
	// the cell's parameters as the cache-key contract requires (pt.X is
	// informational and excluded from the key).
	margin := 2 - pt.Params.LambdaTotal()
	nmax := 150
	switch {
	case margin >= 1:
		nmax = 70
	case margin >= 0.5:
		nmax = 100
	}
	c, err := markov.Build(pt.Params, nmax)
	if err != nil {
		return sweep.Cell{}, err
	}
	res, err := c.Stationary(2_000_000, 1e-10)
	if err != nil {
		return sweep.Cell{}, err
	}
	cell := sweep.Cell{Class: "stable", Value: res.MeanN}
	cell.SetFinite("mean_n", res.MeanN)
	cell.SetFinite("boundary_mass", res.BoundaryMass)
	return cell, nil
}

// absRel is |a−b|/|b| for table verdicts.
func absRel(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	if b < 0 {
		b = -b
	}
	return d / b
}
