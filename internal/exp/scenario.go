package exp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pieceset"
	"repro/internal/sim"
)

// RunE15 exercises the scenario layer end-to-end through the engine's
// scenario-aware backends: a flash-crowd arrival ramp hitting a stable
// Example 1 system (which must absorb the surge and drain back), and
// downloader churn overlaid on a transient system (which abandonment
// stabilizes, the way real swarms shed impatient peers). This experiment
// goes beyond the paper — the paper's model is stationary — but every
// verdict is still checked against the obvious theory: Theorem 1 off the
// event window, M/M/∞-style boundedness (N ≲ λ/δ) under churn.
func RunE15(cfg Config) (*Table, error) {
	peak := cfg.FlashPeak
	if peak <= 0 {
		peak = 6
	}
	churn := cfg.Churn
	if churn <= 0 {
		churn = 0.5
	}
	t := &Table{
		ID:    "E15",
		Title: fmt.Sprintf("Scenario layer: flash-crowd ×%s ramp and churn δ=%s", fmtF(peak), fmtF(churn)),
		Headers: []string{
			"scenario", "overlay", "expected", "simulated",
			"E[N]", "peak N", "final N", "verdict",
		},
	}

	horizon := cfg.pick(400, 1500)
	replicas := cfg.pickInt(3, 8)
	// The flash occupies the middle fifth of the base horizon. Its replicas
	// get extra tail time proportional to the injected backlog, so a large
	// -flash-peak is still judged on the drained state, not mid-recovery:
	// the surge adds ≈ (peak−1)·λ0·(Rise/2+Hold+Fall/2) peers and the
	// stable system drains them at ≈ λ0* − λ0 = 1 peer per time unit.
	flash := kernel.FlashCrowd{
		Start: horizon * 0.4,
		Rise:  horizon * 0.05,
		Hold:  horizon * 0.1,
		Fall:  horizon * 0.05,
		Peak:  peak,
	}
	backlog := (peak - 1) * (flash.Rise/2 + flash.Hold + flash.Fall/2)
	flashHorizon := flash.Start + flash.Rise + flash.Hold + flash.Fall +
		2*backlog + horizon*0.4

	stable := model.Params{ // Example 1 at λ0 = 1 < λ0* = 2
		K: 1, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
	transient := model.Params{ // Example 1 at λ0 = 4 > λ0* = 2
		K: 1, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 4},
	}

	cases := []struct {
		label    string
		overlay  string
		params   model.Params
		scenario kernel.Scenario
		horizon  float64
		grows    bool // expected long-run behavior
	}{
		{"Ex1 stable (λ0=1)", "none", stable, kernel.Scenario{}, horizon, false},
		{"Ex1 stable (λ0=1)", "flash crowd", stable, kernel.Scenario{Arrival: flash}, flashHorizon, false},
		{"Ex1 transient (λ0=4)", "none", transient, kernel.Scenario{}, horizon, true},
		{"Ex1 transient (λ0=4)", fmt.Sprintf("churn δ=%s", fmtF(churn)), transient,
			kernel.Scenario{Churn: churn}, horizon, false},
	}
	for _, cse := range cases {
		// A transient Example 1 system at λ0 = 4 drifts up by ≈ 2 peers per
		// time unit, ending near 2·horizon; a stable system — flash crowd or
		// not — ends near its single-digit stationary level once its horizon
		// includes the drain tail. Half the horizon separates the regimes
		// with a wide margin on both sides; the cap is a runaway guard far
		// above any bounded trajectory.
		growAt := int(cse.horizon / 2)
		res, err := cfg.run(cfg.job(
			"E15/"+cse.label+"/"+cse.overlay,
			scenarioBackend(cse.params, cse.scenario, cse.horizon, 20*growAt, growAt),
			replicas, 0,
		))
		if err != nil {
			return nil, err
		}
		grew := 2*res.Count("grew") > replicas
		expected, simulated := "bounded", "bounded"
		if cse.grows {
			expected = "grows"
		}
		if grew {
			simulated = "grows"
		}
		occ := "-"
		if res.Count("occupancy") > 0 {
			occ = fmtF(res.Mean("occupancy"))
		}
		t.AddRow(cse.label, cse.overlay, expected, simulated, occ,
			fmtF(res.Mean("peak_n")), fmtF(res.Mean("final_n")),
			markAgreement(grew == cse.grows))
	}
	t.AddNote("flash: ×%s arrivals over t ∈ [%s, %s]; a stable swarm absorbs the surge and drains back",
		fmtF(peak), fmtF(flash.Start), fmtF(flash.Start+flash.Rise+flash.Hold+flash.Fall))
	t.AddNote("churn: abandonment at δ per downloader bounds even a transient system near λ0/δ = %s",
		fmtF(4/churn))
	return t, nil
}

// scenarioBackend measures one replica under a workload overlay: advance
// in slices to the horizon (or the runaway cap) for prompt cancellation,
// with the peak population tracked by a running-max observer — the exact
// event-level peak, not the slice-boundary approximation the old inline
// loop sampled. A replica "grew" when it hit the cap or ended at growAt
// or more peers.
func scenarioBackend(p model.Params, sc kernel.Scenario, horizon float64, peerCap, growAt int) engine.Backend {
	return &engine.SwarmBackend{
		Label:   "scenario",
		Params:  p,
		Options: []sim.Option{sim.WithScenario(sc)},
		Observe: func(rep int, sw *sim.Swarm) *obs.Set {
			return obs.NewSet(obs.NewMax("peak_n", func() float64 { return float64(sw.N()) }))
		},
		Measure: func(ctx context.Context, rep int, sw *sim.Swarm) (engine.Sample, error) {
			reason := sim.StopTime
			step := horizon / 100
			for target := step; sw.Now() < horizon; target += step {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				var err error
				reason, err = sw.RunUntil(math.Min(target, horizon), peerCap)
				if err != nil {
					return nil, err
				}
				if reason == sim.StopPeers {
					break
				}
			}
			sample := engine.Sample{"final_n": float64(sw.N())}
			if reason == sim.StopPeers || sw.N() >= growAt {
				sample["grew"] = 1
			} else {
				sample["occupancy"] = sw.MeanPeers()
			}
			return sample, nil
		},
	}
}
