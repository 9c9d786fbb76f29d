package exp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/peersim"
	"repro/internal/pieceset"
	"repro/internal/sim"
	"repro/internal/stability"
)

// RunE17 exercises the streaming observation pipeline end to end and pins
// the two dynamic laws it was built to measure:
//
// (a) Stable regime — Little's law. For several λ0 strictly inside the
// Example 1 stability region, the peer-granular simulator's sojourn tracker
// reports L (time-averaged occupancy), λ̂, and W (mean sojourn) from one
// arrival→departure stream per replica; L must equal
// λ·W within the replicas' 95% confidence intervals. This is the paper's
// practical payoff of Theorem 1: positive recurrence is what makes E[T]
// finite and measurable.
//
// (b) Transient regime — the one-club formation-time distribution. Started
// empty above the threshold, each replica runs until a stopping
// hitting-time watcher detects one-club dominance; the hitting times
// aggregate as conditional event marks, and their distribution is
// summarized by mean ± CI plus streaming P² quantiles fed in replica
// order. The missing-piece syndrome is a dynamic story; this is its
// clock.
func RunE17(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E17",
		Title:   "Streaming observation: Little's law L = λW and one-club formation times",
		Headers: []string{"measurement", "expected", "measured", "verdict"},
	}

	// Part (a): Little's law across stable λ0 (threshold λ0* = 2).
	horizon := cfg.pick(2500, 12000)
	replicas := cfg.pickInt(4, 8)
	for _, lambda0 := range []float64{0.6, 1.0, 1.4} {
		p := model.Params{
			K: 1, Us: 1, Mu: 1, Gamma: 2,
			Lambda: map[pieceset.Set]float64{pieceset.Empty: lambda0},
		}
		res, err := cfg.run(cfg.job(
			fmt.Sprintf("E17/little/lambda0=%g", lambda0),
			&engine.PeerBackend{
				Label:  "little",
				Params: p,
				Observe: func(rep int, sw *peersim.Swarm) *obs.Set {
					// The swarm's built-in tracker joins the pipeline so its
					// sealed scalars (L, λ̂, W, quantiles) flow into the
					// replica records; no per-experiment sampling code.
					return obs.NewSet(sw.Sojourn())
				},
				Measure: func(ctx context.Context, rep int, sw *peersim.Swarm) (engine.Sample, error) {
					step := horizon / 16
					for target := step; sw.Now() < horizon; target += step {
						if err := ctx.Err(); err != nil {
							return nil, err
						}
						if err := sw.RunUntil(math.Min(target, horizon), 0); err != nil {
							return nil, err
						}
					}
					return engine.Sample{}, nil
				},
			}, replicas, uint64(1000*lambda0)))
		if err != nil {
			return nil, err
		}
		l := res.Summary("sojourn.l")
		w := res.Summary("sojourn.w_mean")
		lw := lambda0 * w.Mean()
		tol := l.CI95() + lambda0*w.CI95()
		ok := math.Abs(l.Mean()-lw) <= tol
		t.AddRow(
			fmt.Sprintf("Little's law, λ0 = %s (stable)", fmtF(lambda0)),
			"L = λ·W within 95% CI",
			fmt.Sprintf("L = %s vs λW = %s (tol %s)", fmtF(l.Mean()), fmtF(lw), fmtF(tol)),
			markAgreement(ok))
		t.AddRow(
			fmt.Sprintf("sojourn quantiles, λ0 = %s", fmtF(lambda0)),
			"p50 ≤ mean ≤ p90 (heavy tail)",
			fmt.Sprintf("p50 = %s, mean = %s, p90 = %s",
				fmtF(res.Mean("sojourn.w_p50")), fmtF(w.Mean()), fmtF(res.Mean("sojourn.w_p90"))),
			markAgreement(res.Mean("sojourn.w_p50") <= w.Mean() && w.Mean() <= res.Mean("sojourn.w_p90")))
	}

	// Part (b): one-club formation times in a clearly transient system.
	p := model.Params{
		K: 3, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 7},
	}
	a, err := stability.Classify(p)
	if err != nil {
		return nil, err
	}
	if a.Verdict != stability.Transient {
		return nil, fmt.Errorf("exp: E17 base point not transient (%v)", a.Verdict)
	}
	formHorizon := cfg.pick(400, 1500)
	formReplicas := cfg.pickInt(8, 16)
	onsetN := float64(cfg.pickInt(60, 150))
	const onsetFrac = 0.6
	res, err := cfg.run(cfg.job("E17/formation", &engine.SwarmBackend{
		Label:  "formation",
		Params: p,
		Observe: func(rep int, sw *sim.Swarm) *obs.Set {
			return obs.NewSet(obs.NewWatch("t_club", true, func(_, pop float64) bool {
				if pop < onsetN {
					return false
				}
				for k := 1; k <= p.K; k++ {
					if float64(sw.OneClub(k)) >= onsetFrac*pop {
						return true
					}
				}
				return false
			}))
		},
		Measure: func(ctx context.Context, rep int, sw *sim.Swarm) (engine.Sample, error) {
			step := formHorizon / 32
			for target := step; sw.Now() < formHorizon; target += step {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				reason, err := sw.RunUntil(math.Min(target, formHorizon), 0)
				if err != nil {
					return nil, err
				}
				if reason == sim.StopObserver {
					break
				}
			}
			return engine.Sample{}, nil
		},
	}, formReplicas, 4242))
	if err != nil {
		return nil, err
	}
	form := res.Summary("t_club")
	t.AddRow(
		fmt.Sprintf("one-club formation (K=3, λ0=7, margin %s)", fmtF(a.Margin)),
		"transient: forms in every replica",
		fmt.Sprintf("%d/%d formed, t = %s", form.N(), formReplicas, form.String()),
		markAgreement(form.N() == formReplicas))
	// Streaming quantiles of the formation-time distribution, fed in
	// replica order (deterministic for a fixed seed and any worker count).
	if form.N() >= 5 {
		p50, p90 := formationQuantiles(res)
		t.AddRow("formation-time quantiles (P²)",
			"p50 ≤ p90, both within [min, max]",
			fmt.Sprintf("p50 = %s, p90 = %s (min %s, max %s)",
				fmtF(p50), fmtF(p90), fmtF(form.Min()), fmtF(form.Max())),
			markAgreement(p50 <= p90 && p50 >= form.Min() && p90 <= form.Max()))
	}
	t.AddNote("sojourn scalars (L, λ̂, W, P² quantiles) come from the peersim tag tracker riding the replica observer pipeline")
	t.AddNote("formation times are the stopping watcher's event marks, aggregated as conditional metrics")
	return t, nil
}

// formationQuantiles streams the per-replica formation marks, in replica
// order, through P² estimators.
func formationQuantiles(res *engine.Result) (p50, p90 float64) {
	e50, e90 := dist.NewP2(0.5), dist.NewP2(0.9)
	for i := range res.Records {
		if v, ok := res.Records[i].Marks["t_club"]; ok {
			e50.Observe(v)
			e90.Observe(v)
		}
	}
	return e50.Value(), e90.Value()
}
