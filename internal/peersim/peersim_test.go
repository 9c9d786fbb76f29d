package peersim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/pieceset"
	"repro/internal/sim"
)

func k1Params(lambda0, us, mu, gamma float64) model.Params {
	return model.Params{
		K: 1, Us: us, Mu: mu, Gamma: gamma,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: lambda0},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(model.Params{}); err == nil {
		t.Error("invalid params accepted")
	}
	fin, inf := k1Params(1, 1, 1, 2), k1Params(1, 1, 1, math.Inf(1))
	full := pieceset.Full(1)
	for _, tc := range []struct {
		name    string
		p       model.Params
		initial map[pieceset.Set]int
		ok      bool
	}{
		{"out-of-range type", fin, map[pieceset.Set]int{pieceset.MustOf(2): 1}, false},
		{"negative count", fin, map[pieceset.Set]int{pieceset.Empty: -1}, false},
		{"seeds at γ=∞", inf, map[pieceset.Set]int{full: 2}, false},
		{"zero seeds at γ=∞", inf, map[pieceset.Set]int{full: 0, pieceset.Empty: 3}, true},
		{"seeds at finite γ", fin, map[pieceset.Set]int{full: 2}, true},
	} {
		_, err := New(tc.p, WithInitialPeers(tc.initial))
		if (err == nil) != tc.ok || (err != nil && !errors.Is(err, model.ErrBadInitial)) {
			t.Errorf("%s: err = %v, want ok = %v or ErrBadInitial", tc.name, err, tc.ok)
		}
	}
}

// TestSojournTrackerLittle: the swarm's obs-backed sojourn tracker is
// internally consistent (SojournTimes is its Durations view) and its
// Little's-law residual shrinks to a few percent over a long stable run.
func TestSojournTrackerLittle(t *testing.T) {
	s, err := New(k1Params(1, 1, 1, 2), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(4000, 0); err != nil {
		t.Fatal(err)
	}
	soj := s.Sojourn()
	if s.SojournTimes() != soj.Durations() {
		t.Error("SojournTimes is not the tracker's Durations view")
	}
	if soj.Durations().N() != s.Departed() {
		t.Errorf("tracked departures %d != swarm departed %d", soj.Durations().N(), s.Departed())
	}
	if soj.Open() != s.N() {
		t.Errorf("tracker open %d != population %d", soj.Open(), s.N())
	}
	l, lam, w := soj.L(), soj.Lambda(), soj.Durations().Mean()
	if math.Abs(soj.LittleGap()) > 0.1*l {
		t.Errorf("Little residual too large: L=%v λ=%v W=%v gap=%v", l, lam, w, soj.LittleGap())
	}
	if soj.Median() <= 0 || soj.P90() < soj.Median() {
		t.Errorf("sojourn quantiles inconsistent: p50=%v p90=%v", soj.Median(), soj.P90())
	}
}

func TestDeterministicReplay(t *testing.T) {
	p := k1Params(1, 1, 1, 2)
	a, _ := New(p, WithSeed(4))
	b, _ := New(p, WithSeed(4))
	for i := 0; i < 5000; i++ {
		if err := a.Step(); err != nil {
			t.Fatal(err)
		}
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
		if a.N() != b.N() || a.Now() != b.Now() || a.Departed() != b.Departed() {
			t.Fatalf("paths diverge at step %d", i)
		}
	}
}

func TestInvariants(t *testing.T) {
	p := model.Params{
		K: 3, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{
			pieceset.Empty:        1.5,
			pieceset.MustOf(1, 2): 0.3,
		},
	}
	s, err := New(p, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		counts := s.TypeCounts()
		total := 0
		holders := make([]int, p.K)
		seeds := 0
		for c, v := range counts {
			total += v
			for _, pc := range c.Pieces() {
				holders[pc-1] += v
			}
			if c.IsFull(p.K) {
				seeds += v
			}
		}
		if total != s.N() {
			t.Fatalf("type counts sum %d ≠ N %d", total, s.N())
		}
		if seeds != s.PeerSeeds() {
			t.Fatalf("seed index %d ≠ full-type count %d", s.PeerSeeds(), seeds)
		}
		for k := 1; k <= p.K; k++ {
			if holders[k-1] != s.Holders(k) {
				t.Fatalf("holders(%d) = %d, recomputed %d", k, s.Holders(k), holders[k-1])
			}
		}
	}
	if s.Departed() == 0 {
		t.Error("no departures in a stable system")
	}
}

func TestGammaInfNoSeedsAndZeroDwell(t *testing.T) {
	p := model.Params{
		K: 2, Us: 2, Mu: 1, Gamma: math.Inf(1),
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
	s, err := New(p, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if s.PeerSeeds() != 0 {
			t.Fatal("peer seed retained under γ=∞")
		}
	}
	if s.Departed() == 0 {
		t.Fatal("no completions")
	}
	if s.DwellTimes().N() != 0 {
		t.Error("dwell times recorded under γ=∞")
	}
	if s.DownloadTimes().N() != s.Departed() {
		t.Errorf("download samples %d ≠ departures %d", s.DownloadTimes().N(), s.Departed())
	}
}

// TestLittlesLaw ties the per-peer sojourn statistics to the occupancy
// average: E[N] = λ·E[T].
func TestLittlesLaw(t *testing.T) {
	p := k1Params(0.8, 1, 1, 2)
	s, err := New(p, WithSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(20000, 0); err != nil {
		t.Fatal(err)
	}
	lambda := p.LambdaTotal()
	meanT := s.SojournTimes().Mean()
	meanN := s.MeanPeers()
	if s.SojournTimes().N() < 5000 {
		t.Fatalf("too few departures: %d", s.SojournTimes().N())
	}
	if math.Abs(lambda*meanT-meanN) > 0.1*meanN {
		t.Errorf("Little's law: λ·E[T] = %v vs E[N] = %v", lambda*meanT, meanN)
	}
}

// TestDwellTimeMatchesGamma: the dwell phase is Exp(γ), so its mean must be
// 1/γ.
func TestDwellTimeMatchesGamma(t *testing.T) {
	const gamma = 2.5
	p := k1Params(0.8, 1, 1, gamma)
	s, err := New(p, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(20000, 0); err != nil {
		t.Fatal(err)
	}
	if s.DwellTimes().N() < 3000 {
		t.Fatalf("too few dwell samples: %d", s.DwellTimes().N())
	}
	if got := s.DwellTimes().Mean(); math.Abs(got-1/gamma) > 0.05/gamma+0.01 {
		t.Errorf("mean dwell = %v, want %v", got, 1/gamma)
	}
}

// TestSojournDecomposition: sojourn = download + dwell in expectation.
func TestSojournDecomposition(t *testing.T) {
	p := k1Params(0.8, 1, 1, 2)
	s, err := New(p, WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(10000, 0); err != nil {
		t.Fatal(err)
	}
	sum := s.DownloadTimes().Mean() + s.DwellTimes().Mean()
	if math.Abs(sum-s.SojournTimes().Mean()) > 0.02*sum {
		t.Errorf("decomposition: %v + %v ≠ %v",
			s.DownloadTimes().Mean(), s.DwellTimes().Mean(), s.SojournTimes().Mean())
	}
}

// TestCrossValidatesTypeCountSim: the two simulators of the same chain must
// produce matching long-run occupancy.
func TestCrossValidatesTypeCountSim(t *testing.T) {
	p := model.Params{
		K: 2, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 0.8},
	}
	pp, err := New(p, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := pp.RunUntil(15000, 0); err != nil {
		t.Fatal(err)
	}
	tc, err := sim.New(p, sim.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.RunUntil(15000, 0); err != nil {
		t.Fatal(err)
	}
	a, b := pp.MeanPeers(), tc.MeanPeers()
	if math.Abs(a-b) > 0.12*(a+b)/2 {
		t.Errorf("occupancy mismatch: peersim %v vs sim %v", a, b)
	}
}

// TestUploadsBalance: total uploads contributed by departed peers plus the
// seed's work accounts for all pieces delivered; sanity-check via means.
func TestUploadsBalance(t *testing.T) {
	p := k1Params(0.8, 0.2, 1, 2)
	s, err := New(p, WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(10000, 0); err != nil {
		t.Fatal(err)
	}
	// Each departed peer downloaded K = 1 piece; uploads per peer averaged
	// over departures must be ≤ total pieces delivered per peer (1) since
	// the fixed seed also contributes.
	up := s.UploadsPerPeer().Mean()
	if up < 0 || up > 1 {
		t.Errorf("mean uploads per peer = %v, want within [0, 1]", up)
	}
	// And the seed's share makes up the difference (≈ λ·K − λ·up uploads
	// per unit time); indirectly: up must be strictly positive.
	if up == 0 {
		t.Error("peers never uploaded")
	}
}

// TestPolicyOption: rarest-first runs and keeps the same stability
// behaviour.
func TestPolicyOption(t *testing.T) {
	p := model.Params{
		K: 3, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 0.5},
	}
	s, err := New(p, WithSeed(51), WithPolicy(sim.RarestFirst{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(2000, 0); err != nil {
		t.Fatal(err)
	}
	if s.MeanPeers() > 20 {
		t.Errorf("stable system occupancy %v too high", s.MeanPeers())
	}
}

func TestRunUntilPeerCap(t *testing.T) {
	p := k1Params(20, 0.1, 1, 2) // transient
	s, err := New(p, WithSeed(61))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(1e9, 200); err != nil {
		t.Fatal(err)
	}
	if s.N() < 200 {
		t.Errorf("stopped at N = %d", s.N())
	}
}
