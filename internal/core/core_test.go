package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/pieceset"
	"repro/internal/sim"
	"repro/internal/stability"
)

func k1System(t *testing.T, lambda0, us, mu, gamma float64) *System {
	t.Helper()
	s, err := NewSystem(model.Params{
		K: 1, Us: us, Mu: mu, Gamma: gamma,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: lambda0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(model.Params{}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestVerdictDelegation(t *testing.T) {
	s := k1System(t, 0.5, 1, 1, 2)
	if s.Verdict() != PositiveRecurrent {
		t.Errorf("verdict = %v", s.Verdict())
	}
	if s.CriticalPiece() != 1 {
		t.Errorf("critical piece = %d", s.CriticalPiece())
	}
	if s.Params().K != 1 {
		t.Error("params not retained")
	}
	if s.Stability().Verdict != s.Verdict() {
		t.Error("analysis/verdict mismatch")
	}
}

func TestOneClubGrowthRate(t *testing.T) {
	s := k1System(t, 5, 1, 1, 2) // transient; ∆ = 5 − 2 = 3
	g, err := s.OneClubGrowthRate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-3) > 1e-12 {
		t.Errorf("growth rate = %v, want 3", g)
	}
	// γ ≤ µ branch: undefined.
	s2 := k1System(t, 5, 1, 1, 0.5)
	if _, err := s2.OneClubGrowthRate(); err == nil {
		t.Error("γ ≤ µ growth rate must error")
	}
}

func TestExactStationaryAndLittle(t *testing.T) {
	s := k1System(t, 0.5, 1, 1, 2)
	res, err := s.ExactStationary(40)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanN <= 0 || res.BoundaryMass > 1e-6 {
		t.Errorf("MeanN = %v, boundary %v", res.MeanN, res.BoundaryMass)
	}
	soj := s.MeanSojournTime(res.MeanN)
	if math.Abs(soj-res.MeanN/0.5) > 1e-12 {
		t.Errorf("Little's law: %v", soj)
	}
}

func TestRunConfigValidation(t *testing.T) {
	s := k1System(t, 0.5, 1, 1, 2)
	if _, err := s.ClassifyEmpirically(RunConfig{Horizon: 0, PeerCap: 10}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero horizon err = %v", err)
	}
	if _, err := s.ClassifyEmpirically(RunConfig{Horizon: 10, PeerCap: 0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero cap err = %v", err)
	}
}

// TestEmpiricalMatchesTheoryStable: a clearly stable system must not grow.
func TestEmpiricalMatchesTheoryStable(t *testing.T) {
	s := k1System(t, 0.5, 1, 1, 2)
	e, err := s.ClassifyEmpirically(RunConfig{
		Horizon: 400, PeerCap: 400, Replicas: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Grew || !e.Agrees(s.Verdict()) {
		t.Errorf("stable system grew: %+v", e)
	}
	if math.IsNaN(e.MeanOccupancy) || e.MeanOccupancy > 15 {
		t.Errorf("occupancy = %v", e.MeanOccupancy)
	}
	if e.Replicas != 3 {
		t.Errorf("replicas = %d", e.Replicas)
	}
}

// TestEmpiricalMatchesTheoryTransient: well above threshold the population
// must grow in every replica.
func TestEmpiricalMatchesTheoryTransient(t *testing.T) {
	s := k1System(t, 8, 1, 1, 2)
	e, err := s.ClassifyEmpirically(RunConfig{
		Horizon: 400, PeerCap: 300, Replicas: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Grew || !e.Agrees(s.Verdict()) {
		t.Errorf("transient system did not grow: %+v", e)
	}
	if e.GrowFraction != 1 {
		t.Errorf("grow fraction = %v", e.GrowFraction)
	}
	if e.MeanFinalN < 150 {
		t.Errorf("final N = %v", e.MeanFinalN)
	}
}

// TestEmpiricalPolicyOverride runs the stable case under rarest-first.
func TestEmpiricalPolicyOverride(t *testing.T) {
	s := k1System(t, 0.5, 1, 1, 2)
	e, err := s.ClassifyEmpirically(RunConfig{
		Horizon: 200, PeerCap: 300, Replicas: 2, Seed: 5,
		Policy: sim.RarestFirst{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Grew {
		t.Errorf("stable under rarest-first grew: %+v", e)
	}
}

func TestAgreesBorderline(t *testing.T) {
	e := Empirical{Grew: true}
	if !e.Agrees(stability.Borderline) {
		t.Error("borderline must agree with any outcome")
	}
	if e.Agrees(stability.PositiveRecurrent) {
		t.Error("growth disagrees with recurrence")
	}
	if !e.Agrees(stability.Transient) {
		t.Error("growth agrees with transience")
	}
}

// TestGrowsFold pins the majority fold: a strict majority decides, and an
// even split grows exactly when the mean final population reaches
// PeerCap/2 (integer division, as the per-replica criterion uses).
func TestGrowsFold(t *testing.T) {
	for _, c := range []struct {
		grew, replicas int
		meanFinalN     float64
		peerCap        int
		want           bool
	}{
		{3, 5, 0, 100, true},
		{2, 5, 100, 100, false},
		{3, 3, 0, 100, true},
		{0, 3, 0, 100, false},
		{1, 2, 50, 100, true},
		{1, 2, 49.9, 100, false},
		{3, 6, 60, 121, true}, // 121/2 = 60
		{3, 6, 59.5, 121, false},
		{2, 4, 1e6, 100, true},
	} {
		if got := grows(c.grew, c.replicas, c.meanFinalN, c.peerCap); got != c.want {
			t.Errorf("grows(%d of %d, mean %v, cap %d) = %v, want %v",
				c.grew, c.replicas, c.meanFinalN, c.peerCap, got, c.want)
		}
	}
}

// TestClassifyHybrid: the hybrid path rejects what tau-leaping cannot
// represent — scenarios and non-default policies — and otherwise runs the
// shared classification protocol to the same grows/bounded verdicts as the
// exact path.
func TestClassifyHybrid(t *testing.T) {
	stable := k1System(t, 0.5, 1, 1, 2)
	transient := k1System(t, 8, 1, 1, 2)
	cfg := RunConfig{Horizon: 200, PeerCap: 300, Replicas: 3, Seed: 7}
	with := func(f func(*RunConfig)) RunConfig {
		c := cfg
		f(&c)
		return c
	}
	cases := []struct {
		name    string
		sys     *System
		cfg     RunConfig
		wantErr []error
		grew    bool
	}{
		{name: "scenario", sys: stable,
			cfg:     with(func(c *RunConfig) { c.Scenario = kernel.Scenario{Churn: 0.1} }),
			wantErr: []error{ErrBadConfig, hybrid.ErrScenario}},
		{name: "policy", sys: stable,
			cfg:     with(func(c *RunConfig) { c.Policy = sim.RarestFirst{} }),
			wantErr: []error{ErrBadConfig}},
		{name: "stable", sys: stable, cfg: cfg},
		{name: "transient", sys: transient, cfg: cfg, grew: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := c.sys.ClassifyHybrid(c.cfg)
			if c.wantErr != nil {
				for _, want := range c.wantErr {
					if !errors.Is(err, want) {
						t.Errorf("err = %v, want %v", err, want)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if e.Grew != c.grew || !e.Agrees(c.sys.Verdict()) || e.Replicas != 3 {
				t.Errorf("verdict %s, want grew=%v: %+v", e.Label(), c.grew, e)
			}
		})
	}
}

func TestNewSwarmUsesParams(t *testing.T) {
	s := k1System(t, 1, 1, 1, 2)
	sw, err := s.NewSwarm(sim.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if sw.Params().K != 1 {
		t.Error("swarm params mismatch")
	}
}
