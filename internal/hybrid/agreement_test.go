package hybrid

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pieceset"
	"repro/internal/rng"
	"repro/internal/sim"
)

// newOverlap builds a hybrid swarm with the leap band narrowed to 24/12, so
// the leap regime carries real weight at moderate N and the agreement tests
// compare tau-leaped trajectories against the exact chain rather than
// trivially running exact on both sides. The populations stay far below
// the fluid band.
func newOverlap(t *testing.T, p model.Params, seed uint64) *Swarm {
	t.Helper()
	h, err := New(p, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	h.leapEnter, h.leapExit = 24, 12
	return h
}

// TestOccupancyAgreement is the property test of the switching rule: on
// random K ≤ 3 instances in the leap-overlap regime, the hybrid's
// time-averaged occupancy must agree with the exact chain's within the
// combined replica confidence intervals.
func TestOccupancyAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("distributional agreement needs full replica pools")
	}
	gen := rng.New(20260808)
	const replicas = 16
	const horizon = 24.0
	for inst := 0; inst < 3; inst++ {
		k := 2 + gen.Intn(2)
		us := 60 + 40*gen.Float64()
		lambda0 := 1.1*us + us*gen.Float64() // below the 2·Us-ish boundary
		gamma := math.Inf(1)
		if gen.Bernoulli(0.5) {
			gamma = 1 + 2*gen.Float64()
		}
		p := model.Params{
			K: k, Us: us, Mu: 1, Gamma: gamma,
			Lambda: map[pieceset.Set]float64{pieceset.Empty: lambda0},
		}
		var hyb, exact dist.Summary
		var leaps, fluid uint64
		for rep := 0; rep < replicas; rep++ {
			seed := uint64(1000*inst + rep)
			h := newOverlap(t, p, seed)
			if _, err := h.RunUntil(horizon, 0); err != nil {
				t.Fatal(err)
			}
			hyb.Add(h.MeanPeers())
			leaps += h.Stats().Leaps
			fluid += h.Stats().FluidSteps

			e, err := sim.New(p, sim.WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.RunUntil(horizon, 0); err != nil {
				t.Fatal(err)
			}
			exact.Add(e.MeanPeers())
		}
		if leaps == 0 {
			t.Fatalf("instance %d (%v): overlap band never leaped — test is vacuous", inst, p)
		}
		if fluid != 0 {
			t.Fatalf("instance %d (%v): %d fluid steps far below the fluid band", inst, p, fluid)
		}
		diff := math.Abs(hyb.Mean() - exact.Mean())
		tol := hyb.CI95() + exact.CI95()
		if diff > tol {
			t.Errorf("instance %d (%v): occupancy %v (hybrid) vs %v (exact), |Δ|=%.3g > CI tol %.3g",
				inst, p, hyb.String(), exact.String(), diff, tol)
		}
	}
}

// TestHittingTimeAgreement compares one-club hitting-time quantiles: on an
// unstable instance the time for the one-club to reach a target size is a
// genuine fluctuation-driven distribution, and the hybrid (leaping through
// the bulk, exact near boundaries) must reproduce its P² median and IQR.
func TestHittingTimeAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("distributional agreement needs full replica pools")
	}
	// λ0 well above the one-club threshold: the syndrome takes over and the
	// club grows ballistically after a random incubation.
	p := model.Params{
		K: 2, Us: 2, Mu: 1, Gamma: math.Inf(1),
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 50},
	}
	const replicas = 32
	const target = 120
	const horizon = 2000.0
	// collect runs one watched replica per seed through run, which returns
	// the halting time.
	collect := func(run func(seed uint64) (sim.StopReason, float64)) (med float64, iqr float64) {
		p2 := dist.NewP2(0.5)
		var samples []float64
		for rep := 0; rep < replicas; rep++ {
			reason, now := run(7000 + uint64(rep))
			if reason != sim.StopObserver {
				t.Fatalf("replica %d never hit the one-club target: %v (t=%v)", rep, reason, now)
			}
			p2.Observe(now)
			samples = append(samples, now)
		}
		q25 := dist.ExactQuantile(samples, 0.25)
		q75 := dist.ExactQuantile(samples, 0.75)
		return p2.Value(), q75 - q25
	}
	medH, iqrH := collect(func(seed uint64) (sim.StopReason, float64) {
		h := newOverlap(t, p, seed)
		h.WatchOneClub(1, target)
		h.WatchOneClub(2, target)
		reason, err := h.RunUntil(horizon, 0)
		if err != nil {
			t.Fatal(err)
		}
		if h.Stats().FluidSteps != 0 {
			t.Fatalf("fluid steps while watches are armed: %+v", h.Stats())
		}
		return reason, h.Now()
	})
	medE, iqrE := collect(func(seed uint64) (sim.StopReason, float64) {
		sw, err := sim.New(p, sim.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		sw.SetTap(obs.NewSet(obs.NewWatch("club", true, func(_, _ float64) bool {
			return sw.OneClub(1) >= target || sw.OneClub(2) >= target
		})))
		reason, err := sw.RunUntil(horizon, 0)
		if err != nil {
			t.Fatal(err)
		}
		return reason, sw.Now()
	})
	// Median standard error ≈ 1.25·σ/√R per side; the IQR-based tolerance
	// below is ≈ 2 combined standard errors plus a small relative slack.
	tol := 0.75*(iqrH+iqrE)/math.Sqrt(replicas)*1.86 + 0.05*medE
	if diff := math.Abs(medH - medE); diff > tol {
		t.Errorf("hitting-time median: hybrid %.4g vs exact %.4g (|Δ|=%.3g > tol %.3g; IQRs %.3g/%.3g)",
			medH, medE, diff, tol, iqrH, iqrE)
	}
	// The spreads must be on the same scale too (a leaping artifact that
	// collapses or inflates variability would slip past the median check).
	if iqrH > 3*iqrE+0.05*medE || iqrE > 3*iqrH+0.05*medE {
		t.Errorf("hitting-time IQR mismatch: hybrid %.4g vs exact %.4g", iqrH, iqrE)
	}
}
