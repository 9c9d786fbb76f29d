package sweep

import (
	"context"
	"errors"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/pieceset"
	"repro/internal/rng"
)

// TestMonteCarloFingerprints pins the evaluators' cache identities: they
// key the on-disk cell store, so any change orphans every stored cell.
func TestMonteCarloFingerprints(t *testing.T) {
	cases := []struct {
		ev   Evaluator
		want string
	}{
		{&Empirical{Horizon: 40, PeerCap: 120}, "h=40;cap=120;rep=3"},
		{&Empirical{Horizon: 1e5, PeerCap: 2500, Replicas: 5}, "h=100000;cap=2500;rep=5"},
		{&Hybrid{Horizon: 40, PeerCap: 2000},
			"h=40;cap=2000;rep=3;leap=64/32;fluid=50000/25000;eps=0.05;minlev=16;chk=64;dwell=512;ftol=1e-06"},
		{&Hybrid{Horizon: 0.25, PeerCap: 10, Replicas: 7, Config: hybrid.Config{LeapEnter: 32, NoLeap: true}},
			"h=0.25;cap=10;rep=7;leap=32/16;fluid=50000/25000;eps=0.05;minlev=16;chk=64;dwell=512;ftol=1e-06;noleap"},
	}
	for _, c := range cases {
		if got := c.ev.Fingerprint(); got != c.want {
			t.Errorf("%s fingerprint = %q, want %q", c.ev.Name(), got, c.want)
		}
	}
}

// TestHybridRejectsScenario: tau-leaping aggregates stationary rates, so a
// point with an active scenario must fail instead of being approximated.
func TestHybridRejectsScenario(t *testing.T) {
	pt := Point{
		Params: model.Params{K: 1, Us: 1, Mu: 1, Gamma: 2,
			Lambda: map[pieceset.Set]float64{pieceset.Empty: 0.5}},
		Scenario: kernel.Scenario{Churn: 0.1},
	}
	ev := &Hybrid{Horizon: 10, PeerCap: 100}
	if _, err := ev.Evaluate(context.Background(), pt, rng.New(1)); !errors.Is(err, hybrid.ErrScenario) {
		t.Errorf("err = %v, want hybrid.ErrScenario", err)
	}
}
