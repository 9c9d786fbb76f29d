package exp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/model"
	"repro/internal/pieceset"
	"repro/internal/sweep"
)

// RunE18 validates the adaptive multi-regime backend (internal/hybrid)
// against the exact simulator at the system level: the Example 1 phase
// boundary swept with both evaluators must land in the same cell (and on
// the Theorem 1 line), a stable point's occupancy must agree within the
// replica confidence intervals, and the stochastic-step reduction behind
// the backend's speedup is pinned as a deterministic work ratio. The
// wall-clock companion is BenchmarkHybridSpeedup in internal/hybrid, which
// CI's benchmark step records in BENCH.json. The table's printed note
// still names the retired BENCH_hybrid.json: its bytes are part of E18's
// pinned output.
func RunE18(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E18",
		Title:   "Hybrid multi-regime backend: phase-map, occupancy, and work-ratio validation",
		Headers: []string{"check", "exact", "hybrid", "measured", "verdict"},
	}

	// (a) Example 1 phase boundary (K=1, λ0 × µ/γ), Monte-Carlo with both
	// evaluators on the identical grid and seed: the swept crossings along
	// the row nearest µ/γ = 0.5 must agree cell for cell. The Theorem 1
	// line λ0* = U_s/(1−µ/γ) is reported for reference; finite horizons
	// bias both estimators upward near the boundary (slow growth does not
	// reach the cap), and E16 already pins the exact evaluator to theory.
	ex1 := model.Params{
		K: 1, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
	grid := sweep.Grid{
		Base:        ex1,
		X:           AxisSpecFor("lambda0", 0.25, 6, cfg.pickInt(4, 6)),
		Y:           AxisSpecFor("mu-over-gamma", 0.2, 0.8, cfg.pickInt(3, 4)),
		RefineDepth: cfg.pickInt(1, 2),
	}
	horizon := cfg.pick(150, 250)
	peerCap := cfg.pickInt(250, 400)
	replicas := cfg.pickInt(4, 6)
	simMap, err := grid.Run(cfg.Context, &sweep.Runner{
		Evaluator: sweep.Seeded{
			Evaluator: &sweep.Empirical{Horizon: horizon, PeerCap: peerCap, Replicas: replicas},
			Seed:      cfg.seed(),
		},
		Workers: cfg.Workers, Sink: cfg.Sink,
	})
	if err != nil {
		return nil, err
	}
	hybMap, err := grid.Run(cfg.Context, &sweep.Runner{
		Evaluator: sweep.Seeded{
			Evaluator: &sweep.Hybrid{Horizon: horizon, PeerCap: peerCap, Replicas: replicas},
			Seed:      cfg.seed(),
		},
		Workers: cfg.Workers, Sink: cfg.Sink,
	})
	if err != nil {
		return nil, err
	}
	iy := nearestIndex(simMap.Ys, 0.5)
	lambdaStar := ex1.Us / (1 - simMap.Ys[iy])
	simCross := simMap.XCrossings(iy)
	hybCross := hybMap.XCrossings(iy)
	cell := simMap.CellWidth()
	agree := crossingsWithin(hybCross, simCross, cell) && crossingsWithin(simCross, hybCross, cell)
	t.AddRow(
		fmt.Sprintf("(a) Ex1 boundary at µ/γ=%s %s", fmtF(simMap.Ys[iy]), dims(simMap)),
		fmtCrossings(simCross), fmtCrossings(hybCross),
		fmt.Sprintf("λ0*=%s (cell %s)", fmtF(lambdaStar), fmtF(cell)),
		markAgreement(agree))

	// (b) Occupancy at a stable scaled point: identical classification
	// protocol on both backends. The bound is 10% relative: O(ε) = 5%
	// from the leap's rate aggregation plus Monte-Carlo noise at this
	// replica count (the distribution-level CI test lives in
	// internal/hybrid's agreement suite).
	scale := cfg.pick(300, 600)
	stable := model.Params{
		K: 2, Us: scale, Mu: 1, Gamma: math.Inf(1),
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1.2 * scale},
	}
	sys, err := core.NewSystem(stable)
	if err != nil {
		return nil, err
	}
	occHorizon := cfg.pick(40, 60)
	occCap := int(20 * scale)
	occReps := 8
	exact, err := sys.ClassifyEmpirically(cfg.runConfig(occHorizon, occCap, occReps))
	if err != nil {
		return nil, err
	}
	hyb, err := sys.ClassifyHybrid(cfg.runConfig(occHorizon, occCap, occReps))
	if err != nil {
		return nil, err
	}
	relDiff := math.Abs(hyb.MeanOccupancy-exact.MeanOccupancy) / exact.MeanOccupancy
	t.AddRow(
		fmt.Sprintf("(b) E[N] at λ0=%s stable point", fmtF(1.2*scale)),
		fmtF(exact.MeanOccupancy), fmtF(hyb.MeanOccupancy),
		fmt.Sprintf("rel diff %s", fmtF(relDiff)),
		markAgreement(!exact.Grew && !hyb.Grew && relDiff < 0.10))

	// (c) Deterministic work ratio: stochastic steps the hybrid takes
	// (exact events + leaps + fluid steps) versus the events the same
	// trajectory span costs event-by-event. One replica, fixed seed; the
	// ≥20× bar is the acceptance floor, typical values are far higher.
	big := model.Params{
		K: 2, Us: cfg.pick(4e3, 2e4), Mu: 1, Gamma: math.Inf(1),
		Lambda: map[pieceset.Set]float64{pieceset.Empty: cfg.pick(6e3, 3e4)},
	}
	h, err := hybrid.New(big, hybrid.WithSeed(cfg.seed()))
	if err != nil {
		return nil, err
	}
	if _, err := h.RunUntil(cfg.pick(3, 4), 0); err != nil {
		return nil, err
	}
	st := h.Stats()
	work := st.ExactEvents + st.Leaps + st.FluidSteps
	ratio := float64(st.Events) / float64(work)
	t.AddRow(
		fmt.Sprintf("(c) work units at λ0=%s", fmtF(big.Lambda[pieceset.Empty])),
		fmt.Sprintf("%d events", st.Events),
		fmt.Sprintf("%d steps (%d exact, %d leaps, %d fluid)",
			work, st.ExactEvents, st.Leaps, st.FluidSteps),
		fmt.Sprintf("%sx fewer", fmtF(ratio)),
		markAgreement(ratio >= 20))

	t.AddNote("both evaluators share grid, seed, replica protocol; only the backend differs")
	t.AddNote("regime thresholds at defaults (%s)", hybrid.Thresholds)
	t.AddNote("wall-clock speedups (N up to 1e6) are measured by BenchmarkHybridSpeedup → BENCH_hybrid.json")
	return t, nil
}
