package markov

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/pieceset"
	"repro/internal/rng"
)

// oracleCase is a chain with its recorded power-iteration outcome: the
// iteration count and E[N] that the edge-by-edge (scatter) solver
// returned for it at the same maxIter and tol.
type oracleCase struct {
	name    string
	p       model.Params
	nmax    int
	maxIter int
	tol     float64
	iters   int
	meanN   float64
}

func k2Params(lEmpty, lOne float64) model.Params {
	return model.Params{
		K: 2, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: lEmpty, pieceset.MustOf(1): lOne},
	}
}

// oracleCases are perfbench's exact-solve cells at seed 1 (E14's solver
// settings) and E10's K = 2 chain (the solver defaults).
var oracleCases = []oracleCase{
	{"K1 λ0≈0.5", k1Params(0.4980629957908347, 1, 1, 2), 35, 2_000_000, 1e-10, 4878, 1.116873145612803},
	{"K1 λ0≈0.6", k1Params(0.5974303144368969, 1, 1, 2), 35, 2_000_000, 1e-10, 6001, 1.480608081488373},
	{"K1 λ0≈0.7", k1Params(0.6988856769485943, 1, 1, 2), 35, 2_000_000, 1e-10, 7396, 1.934070024137914},
	{"K1 λ0≈0.8", k1Params(0.7977260492641203, 1, 1, 2), 40, 2_000_000, 1e-10, 10251, 2.4796659609627625},
	{"K1 λ0≈0.9", k1Params(0.8971428546850153, 1, 1, 2), 40, 2_000_000, 1e-10, 12604, 3.1647682235505257},
	{"K1 λ0≈1.0", k1Params(0.9961535200241006, 1, 1, 2), 45, 2_000_000, 1e-10, 17317, 4.028794430007157},
	{"K1 λ0≈1.1", k1Params(1.102413342182445, 1, 1, 2), 50, 2_000_000, 1e-10, 24160, 5.2337369643907055},
	{"K1 λ0≈1.2", k1Params(1.1970545218350537, 1, 1, 2), 50, 2_000_000, 1e-10, 29998, 6.645773199986763},
	{"K2 s≈0.6", k2Params(0.23922628812516772, 0.11961314406258386), 12, 2_000_000, 1e-10, 1372, 1.0316713883968456},
	{"K2 s≈0.8", k2Params(0.3214447409675638, 0.1607223704837819), 12, 2_000_000, 1e-10, 1730, 1.5218033915167408},
	{"K2 s≈1.0", k2Params(0.40089579442256973, 0.20044789721128486), 14, 2_000_000, 1e-10, 2509, 2.080043963201258},
	{"K2 s≈1.1", k2Params(0.43867744653488094, 0.21933872326744047), 15, 2_000_000, 1e-10, 2973, 2.380584918596425},
	{"E10 K2", k2Params(0.4, 0.2), 30, 0, 0, 7279, 2.074513340925311},
}

// scatterP is the reference for applyP: dst = src·P pushed edge by edge
// from each source, dividing by Λ on every edge, as the solver's step
// read before the fixed-width gather replaced it.
func scatterP(c *Chain, dst, src []float64) {
	clear(dst)
	for i, mass := range src {
		if mass == 0 {
			continue
		}
		dst[i] += mass * (1 - c.outRate[i]/c.uni)
		for k := c.start[i]; k < c.start[i+1]; k++ {
			dst[c.to[k]] += mass * c.rate[k] / c.uni
		}
	}
}

// TestApplyPMatchesScatter checks the gather kernel entry by entry against
// the scatter reference on a random positive vector and on a point mass
// at the empty state.
func TestApplyPMatchesScatter(t *testing.T) {
	r := rng.New(7)
	for _, tc := range oracleCases {
		c, err := Build(tc.p, tc.nmax)
		if err != nil {
			t.Fatal(err)
		}
		n := c.NumStates()
		random := make([]float64, n)
		for i := range random {
			random[i] = r.Float64() + 1e-3
		}
		point := make([]float64, n)
		point[0] = 1
		got, want := make([]float64, n), make([]float64, n)
		for _, src := range [][]float64{random, point} {
			sum := c.applyP(got, src)
			scatterP(c, want, src)
			var wantSum float64
			for j := range want {
				wantSum += want[j]
				if d := math.Abs(got[j] - want[j]); d > 1e-15*math.Abs(want[j]) {
					t.Fatalf("%s: (src·P)[%d] = %v, scatter %v (rel %.2g)", tc.name, j, got[j], want[j], d/want[j])
				}
			}
			if math.Abs(sum-wantSum) > 1e-14*wantSum {
				t.Errorf("%s: applyP sum %v, want %v", tc.name, sum, wantSum)
			}
		}
	}
}

// TestStationaryMatchesScatterSolver holds Stationary to the recorded
// outcome of the scatter solver: the same iteration count and E[N] to
// 1e-13 relative.
func TestStationaryMatchesScatterSolver(t *testing.T) {
	for _, tc := range oracleCases {
		c, err := Build(tc.p, tc.nmax)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Stationary(tc.maxIter, tc.tol)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != tc.iters {
			t.Errorf("%s: %d iterations, scatter solver took %d", tc.name, res.Iterations, tc.iters)
		}
		if d := math.Abs(res.MeanN - tc.meanN); d > 1e-13*tc.meanN {
			t.Errorf("%s: E[N] = %v, scatter solver %v (rel %.2g)", tc.name, res.MeanN, tc.meanN, d/tc.meanN)
		}
	}
}

// The benchmark chains: exact-solve's widest K = 1 cell and its largest
// K = 2 cell.
var benchChains = []struct {
	name string
	p    model.Params
	nmax int
}{
	{"K1_nmax50", k1Params(1.2, 1, 1, 2), 50},
	{"K2_nmax15", k2Params(0.44, 0.22), 15},
}

// BenchmarkStationary times one power-iteration solve at E14's settings
// and reports the sweep throughput in states·iterations per second.
func BenchmarkStationary(b *testing.B) {
	for _, bc := range benchChains {
		b.Run(bc.name, func(b *testing.B) {
			c, err := Build(bc.p, bc.nmax)
			if err != nil {
				b.Fatal(err)
			}
			var work float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Stationary(2_000_000, 1e-10)
				if err != nil {
					b.Fatal(err)
				}
				work += float64(res.Iterations) * float64(c.NumStates())
			}
			b.ReportMetric(work/b.Elapsed().Seconds(), "states·iters/s")
		})
	}
}

// BenchmarkBuild times the state-space enumeration and the layout of P.
func BenchmarkBuild(b *testing.B) {
	for _, bc := range benchChains {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(bc.p, bc.nmax); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
