package markov

import (
	"errors"
	"testing"
)

func solved(t *testing.T) (*Chain, *StationaryResult) {
	t.Helper()
	c, err := Build(k1Params(0.8, 1, 1, 2), 50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Stationary(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c, res
}

// TestStationarityResidual is the direct global-balance certificate: πQ ≈ 0.
func TestStationarityResidual(t *testing.T) {
	c, res := solved(t)
	r, err := c.StationarityResidual(res)
	if err != nil {
		t.Fatal(err)
	}
	if r > 1e-8 {
		t.Errorf("stationarity residual %v too large", r)
	}
}

// TestStationarityResidualDetectsWrongPi: a perturbed distribution must
// show a visible residual — the certificate is not vacuous.
func TestStationarityResidualDetectsWrongPi(t *testing.T) {
	c, res := solved(t)
	bad := &StationaryResult{Pi: make([]float64, len(res.Pi))}
	copy(bad.Pi, res.Pi)
	bad.Pi[0] += 0.2
	bad.Pi[1] -= 0.2
	r, err := c.StationarityResidual(bad)
	if err != nil {
		t.Fatal(err)
	}
	if r < 1e-3 {
		t.Errorf("perturbed residual %v suspiciously small", r)
	}
}

func TestDistributionErrors(t *testing.T) {
	c, _ := solved(t)
	if _, err := c.StationarityResidual(nil); !errors.Is(err, ErrBadResult) {
		t.Error("nil result accepted by residual")
	}
	if _, err := c.StationarityResidual(&StationaryResult{Pi: []float64{1}}); !errors.Is(err, ErrBadResult) {
		t.Error("mismatched result accepted by residual")
	}
}
