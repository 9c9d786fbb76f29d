package exp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/lyapunov"
	"repro/internal/model"
	"repro/internal/peersim"
	"repro/internal/pieceset"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stability"
)

// RunE10 cross-validates the event-driven simulator against the exact
// truncated-generator solver on small stable systems: the two independent
// implementations of the same CTMC must agree on E[N].
func RunE10(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "Simulator vs exact stationary E[N]",
		Headers: []string{"scenario", "exact E[N]", "simulated E[N] ± SE", "rel. error", "verdict"},
	}
	// Near-threshold occupancy mixes slowly, so even the quick horizon is
	// generous.
	horizon := cfg.pick(12000, 60000)
	cases := []struct {
		label string
		p     model.Params
		nmax  int
	}{
		{
			label: "K=1, λ0=0.8, Us=1, µ=1, γ=2",
			p: model.Params{K: 1, Us: 1, Mu: 1, Gamma: 2,
				Lambda: map[pieceset.Set]float64{pieceset.Empty: 0.8}},
			nmax: 60,
		},
		{
			label: "K=1, λ0=1.2, Us=1, µ=1, γ=2 (nearer threshold)",
			p: model.Params{K: 1, Us: 1, Mu: 1, Gamma: 2,
				Lambda: map[pieceset.Set]float64{pieceset.Empty: 1.2}},
			nmax: 70,
		},
		{
			label: "K=2, λ∅=0.4, λ{1}=0.2, Us=1, µ=1, γ=2",
			p: model.Params{K: 2, Us: 1, Mu: 1, Gamma: 2,
				Lambda: map[pieceset.Set]float64{
					pieceset.Empty:     0.4,
					pieceset.MustOf(1): 0.2,
				}},
			nmax: 30,
		},
	}
	// One engine replica per case: each runs the exact solve and the
	// simulator estimate concurrently with the other cases.
	res, err := cfg.run(cfg.job("E10/validation", engine.Func{
		Label: "validation-sweep",
		Fn: func(ctx context.Context, rep int, r *rng.RNG) (engine.Sample, error) {
			cse := cases[rep]
			sys, err := core.NewSystem(cse.p)
			if err != nil {
				return nil, err
			}
			exact, err := sys.ExactStationary(cse.nmax)
			if err != nil {
				return nil, err
			}
			sw, err := sys.NewSwarm(sim.WithRNG(r))
			if err != nil {
				return nil, err
			}
			if _, err := sw.RunUntil(horizon/20, 0); err != nil {
				return nil, err
			}
			mean, se, err := batchedMeanPeers(sw, horizon)
			if err != nil {
				return nil, err
			}
			return engine.Sample{"exact_en": exact.MeanN, "sim_en": mean, "sim_se": se}, nil
		},
	}, len(cases), 0))
	if err != nil {
		return nil, err
	}
	for i, cse := range cases {
		s := res.Sample(i)
		relErr := math.Abs(s["sim_en"]-s["exact_en"]) / s["exact_en"]
		t.AddRow(cse.label, fmtF(s["exact_en"]), fmtF(s["sim_en"])+" ± "+fmtF(s["sim_se"]),
			fmt.Sprintf("%.1f%%", 100*relErr),
			markAgreement(math.Abs(s["sim_en"]-s["exact_en"]) <= occT*s["sim_se"]))
	}

	// Third implementation cross-check: the peer-granular simulator's mean
	// sojourn time against Little's law E[T] = E[N]/λ on the exact E[N] of
	// the first case, replicated through the engine.
	littleCase := cases[0]
	sysL, err := core.NewSystem(littleCase.p)
	if err != nil {
		return nil, err
	}
	exactL, err := sysL.ExactStationary(littleCase.nmax)
	if err != nil {
		return nil, err
	}
	wantT := sysL.MeanSojournTime(exactL.MeanN)
	peerHorizon := cfg.pick(3000, 15000)
	resL, err := cfg.run(cfg.job("E10/little", &engine.PeerBackend{
		Label:  "little",
		Params: littleCase.p,
		Measure: func(ctx context.Context, rep int, sw *peersim.Swarm) (engine.Sample, error) {
			if err := sw.RunUntil(peerHorizon, 0); err != nil {
				return nil, err
			}
			if sw.SojournTimes().N() == 0 {
				return engine.Sample{}, nil
			}
			return engine.Sample{"mean_t": sw.SojournTimes().Mean()}, nil
		},
	}, cfg.pickInt(4, 8), 13))
	if err != nil {
		return nil, err
	}
	gotT := resL.Mean("mean_t")
	relErrT := math.Abs(gotT-wantT) / wantT
	t.AddRow(littleCase.label+" — peersim E[T] vs Little",
		fmtF(wantT), fmtF(gotT),
		fmt.Sprintf("%.1f%%", 100*relErrT), markAgreement(relErrT < 0.15))
	t.AddNote("exact values from uniformized power iteration on the truncated generator (boundary mass < 1e-5)")
	t.AddNote("SE: batch means over %d slices of one path; agree within %g·SE (two-sided 0.1%% false-failure rate per row)", occBatches, occT)
	t.AddNote("last row: per-peer simulator sojourn mean vs Little's law on the exact E[N], within 15%% (an SE over %d replicas would rest on %d degrees of freedom)", resL.Count("mean_t"), resL.Count("mean_t")-1)
	return t, nil
}

// The simulated-occupancy verdicts of E10 and E14 compare one sample path
// with the exact E[N] in batch-means standard errors.
const (
	// occBatches is the number of equal time slices of the path.
	occBatches = 10
	// occT is the two-sided 0.1% Student-t quantile at occBatches−1 = 9
	// degrees of freedom: each row reads DISAGREE on correct code with
	// probability 0.1%, so a table of a few such rows stays quiet across
	// seeds.
	occT = 4.781
)

// batchedMeanPeers restarts sw's occupancy estimator, advances sw to
// horizon in occBatches equal slices, and returns the time-average
// population over the whole span (sw.MeanPeers(), as one uninterrupted
// run gives: the slices leave the event sequence unchanged) with its
// batch-means standard error, the spread of the slices' own time averages
// over √occBatches. That error is honest when each slice is much longer
// than the chain's relaxation time.
func batchedMeanPeers(sw *sim.Swarm, horizon float64) (mean, se float64, err error) {
	sw.ResetOccupancy()
	t0 := sw.Now()
	prevT, prevArea := t0, 0.0
	var slices dist.Summary
	for b := 1; b <= occBatches; b++ {
		if _, err := sw.RunUntil(t0+(horizon-t0)*float64(b)/occBatches, 0); err != nil {
			return 0, 0, err
		}
		now := sw.Now()
		area := sw.MeanPeers() * (now - t0)
		slices.Add((area - prevArea) / (now - prevT))
		prevT, prevArea = now, area
	}
	return sw.MeanPeers(), slices.Std() / math.Sqrt(occBatches), nil
}

// RunE11 verifies the Foster–Lyapunov inequality of Section VII numerically:
// in the provably stable regime the drift QW is negative on every large
// class-I and class-II state, while in the transient regime it turns
// positive on the one-club ray.
func RunE11(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "Numeric Foster–Lyapunov drift QW(x) on heavy states",
		Headers: []string{"regime", "state family", "max QW/n", "expected sign", "verdict"},
	}
	sizes := []int{600, 1200, cfg.pickInt(2400, 5000)}

	stable := model.Params{K: 2, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 0.5}}
	transient := model.Params{K: 2, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 8}}
	gammaLeMu := model.Params{K: 2, Us: 1, Mu: 2, Gamma: 1,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 3}}

	evalFamily := func(label, family string, p model.Params, states []model.State, wantNeg bool) error {
		c, err := lyapunov.DefaultConstants(p)
		if err != nil {
			return err
		}
		e, err := lyapunov.New(p, c)
		if err != nil {
			return err
		}
		rep, err := e.ScanDrift(states)
		if err != nil {
			return err
		}
		wantStr := "QW > 0 somewhere"
		ok := !rep.AllNegative
		if wantNeg {
			wantStr = "QW < 0 everywhere"
			ok = rep.AllNegative
		}
		t.AddRow(label, family, fmtF(rep.MaxDriftPerN), wantStr, markAgreement(ok))
		return nil
	}
	if err := evalFamily("stable (µ<γ)", "class I", stable,
		lyapunov.ClassIStates(2, sizes), true); err != nil {
		return nil, err
	}
	if err := evalFamily("stable (µ<γ)", "class II", stable,
		lyapunov.ClassIIStates(2, sizes), true); err != nil {
		return nil, err
	}
	if err := evalFamily("stable (γ≤µ, W′)", "class I", gammaLeMu,
		lyapunov.ClassIStates(2, sizes), true); err != nil {
		return nil, err
	}
	// Transient: one-club states.
	var clubs []model.State
	for _, n := range sizes {
		x := model.NewState(2)
		x[int(pieceset.Full(2).Without(1))] = n
		clubs = append(clubs, x)
	}
	if err := evalFamily("transient (λ0=8)", "one-club ray", transient, clubs, false); err != nil {
		return nil, err
	}
	t.AddNote("constants from lyapunov.DefaultConstants; inequality required only for n ≥ n₀ per Lemma 7")
	return t, nil
}

// RunE12 checks the remark after Theorem 1 on random instances: the
// per-piece threshold form (3) and the ∆_S form (4) classify identically,
// and max_S ∆_S is attained on a co-dimension-1 set.
func RunE12(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Equivalence of threshold form (3) and ∆_S form (4)",
		Headers: []string{"check", "instances", "failures", "verdict"},
	}
	r := rng.New(cfg.seed())
	instances := cfg.pickInt(300, 3000)
	var signMismatch, maxMismatch int
	for i := 0; i < instances; i++ {
		k := 2 + r.Intn(3) // K ∈ {2,3,4}
		mu := 0.2 + 2*r.Float64()
		gamma := mu * (1.1 + 3*r.Float64())
		p := model.Params{K: k, Us: 3 * r.Float64(), Mu: mu, Gamma: gamma,
			Lambda: map[pieceset.Set]float64{}}
		// Random sparse arrival vector, always with some empty arrivals.
		p.Lambda[pieceset.Empty] = 0.1 + 3*r.Float64()
		for j := 0; j < 2; j++ {
			c := pieceset.Set(r.Intn(1 << uint(k)))
			if c.IsFull(k) {
				continue
			}
			p.Lambda[c] += 2 * r.Float64()
		}
		lt := p.LambdaTotal()
		for piece := 1; piece <= k; piece++ {
			th := stability.ThresholdFor(p, piece)
			d, err := stability.DeltaS(p, pieceset.Full(k).Without(piece))
			if err != nil {
				return nil, err
			}
			if (lt-th > 1e-9 && d <= 0) || (lt-th < -1e-9 && d >= 0) {
				signMismatch++
			}
		}
		_, maxD, err := stability.MaxDeltaS(p)
		if err != nil {
			return nil, err
		}
		var bestCo1 float64 = math.Inf(-1)
		for piece := 1; piece <= k; piece++ {
			d, err := stability.DeltaS(p, pieceset.Full(k).Without(piece))
			if err != nil {
				return nil, err
			}
			if d > bestCo1 {
				bestCo1 = d
			}
		}
		if math.Abs(maxD-bestCo1) > 1e-9*(1+math.Abs(maxD)) {
			maxMismatch++
		}
	}
	t.AddRow("sign of λ_total − threshold_k vs ∆_{F−{k}}",
		fmt.Sprintf("%d", instances), fmt.Sprintf("%d", signMismatch),
		markAgreement(signMismatch == 0))
	t.AddRow("max_S ∆_S attained at co-dimension 1",
		fmt.Sprintf("%d", instances), fmt.Sprintf("%d", maxMismatch),
		markAgreement(maxMismatch == 0))
	return t, nil
}
