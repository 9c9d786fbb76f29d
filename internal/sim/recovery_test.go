package sim

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/pieceset"
)

func TestNewRecoveryValidation(t *testing.T) {
	p := ex1Params(1, 1, 1, 2)
	if _, err := NewRecovery(model.Params{}, 2); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := NewRecovery(p, 0.5); err == nil {
		t.Error("eta < 1 accepted")
	}
	if _, err := NewRecovery(p, math.NaN()); err == nil {
		t.Error("NaN eta accepted")
	}
	if _, err := NewRecovery(p, 1); err != nil {
		t.Errorf("eta = 1 rejected: %v", err)
	}
	pInf := ex1Params(1, 1, 1, math.Inf(1))
	if _, err := NewRecovery(pInf, 2, WithInitialPeers(map[pieceset.Set]int{pieceset.Full(1): 1})); err == nil {
		t.Error("initial seeds with γ=∞ accepted")
	}
	if _, err := NewRecovery(p, 2, WithInitialPeers(map[pieceset.Set]int{pieceset.MustOf(5): 1})); err == nil {
		t.Error("out-of-range initial type accepted")
	}
	if _, err := NewRecovery(pInf, 2, WithInitialPeers(map[pieceset.Set]int{pieceset.Full(1): 0})); err != nil {
		t.Errorf("zero initial seeds with γ=∞ rejected: %v", err)
	}
}

// TestRecoveryInitialPeersDeterministic: a multi-type initial map must give
// one realization per seed. The Fenwick slot layout follows insertion
// order, so inserting in map-iteration order would vary it run to run.
func TestRecoveryInitialPeersDeterministic(t *testing.T) {
	p := model.Params{
		K: 2, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
	initial := map[pieceset.Set]int{
		pieceset.Empty:     3,
		pieceset.MustOf(1): 5,
		pieceset.MustOf(2): 7,
		pieceset.Full(2):   2,
	}
	run := func() []float64 {
		s, err := NewRecovery(p, 2, WithSeed(7), WithInitialPeers(initial))
		if err != nil {
			t.Fatal(err)
		}
		var path []float64
		for i := 0; i < 200; i++ {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
			path = append(path, s.Now(), float64(s.N()), float64(s.FastPeers()), float64(s.OneClub(1)))
		}
		return path
	}
	want := run()
	for rep := 1; rep < 20; rep++ {
		got := run()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("construction %d diverged from the first at sample %d: %v != %v", rep, i, got[i], want[i])
			}
		}
	}
}

func TestRecoveryDeterministic(t *testing.T) {
	p := ex1Params(1, 1, 1, 2)
	a, _ := NewRecovery(p, 5, WithSeed(13))
	b, _ := NewRecovery(p, 5, WithSeed(13))
	for i := 0; i < 3000; i++ {
		if err := a.Step(); err != nil {
			t.Fatal(err)
		}
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
		if a.N() != b.N() || a.Now() != b.Now() {
			t.Fatalf("paths diverge at step %d", i)
		}
	}
}

func TestRecoveryInvariants(t *testing.T) {
	p := model.Params{
		K: 2, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{
			pieceset.Empty:     1,
			pieceset.MustOf(1): 0.5,
		},
	}
	s, err := NewRecovery(p, 10, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if s.FastPeers() > s.N() {
			t.Fatal("more fast peers than peers")
		}
		if s.N() < 0 {
			t.Fatal("negative population")
		}
		for k := 1; k <= p.K; k++ {
			if h := s.Holders(k); h < 0 || h > s.N() {
				t.Fatalf("holders(%d) = %d with N = %d", k, h, s.N())
			}
		}
	}
	st := s.Stats()
	if st.Arrivals-st.Departures != uint64(s.N()) {
		t.Errorf("flow conservation violated: %d − %d ≠ %d",
			st.Arrivals, st.Departures, s.N())
	}
	if st.NoOps == 0 {
		t.Error("expected some unsuccessful contacts")
	}
}

// TestRecoveryEtaOneMatchesBaseStatistics: with η = 1 the variant is the
// original model; long-run mean populations must agree within noise.
func TestRecoveryEtaOneMatchesBaseStatistics(t *testing.T) {
	p := ex1Params(1, 1, 1, 2) // stable
	base, err := New(p, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecovery(p, 1, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 5000.0
	if _, err := base.RunUntil(horizon, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.RunUntil(horizon, 0); err != nil {
		t.Fatal(err)
	}
	bm, rm := base.MeanPeers(), rec.MeanPeers()
	if math.Abs(bm-rm) > 0.25*(bm+1) {
		t.Errorf("η=1 mean %v vs base mean %v", rm, bm)
	}
}

// TestRecoverySpeedupIncreasesContactRate: large η drives many more events
// per unit time when useless contacts dominate (a large one-club).
func TestRecoverySpeedupIncreasesContactRate(t *testing.T) {
	p := model.Params{
		K: 2, Us: 0.01, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 0.01},
	}
	oneClub := map[pieceset.Set]int{pieceset.Full(2).Without(1): 200}
	slow, err := NewRecovery(p, 1, WithSeed(30), WithInitialPeers(oneClub))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewRecovery(p, 10, WithSeed(30), WithInitialPeers(oneClub))
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 5.0
	if _, err := slow.RunUntil(horizon, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fast.RunUntil(horizon, 0); err != nil {
		t.Fatal(err)
	}
	if fast.Stats().Events < 3*slow.Stats().Events {
		t.Errorf("η=10 events %d not ≫ η=1 events %d",
			fast.Stats().Events, slow.Stats().Events)
	}
	if fast.FastPeers() == 0 {
		t.Error("one-club peers should be running fast clocks")
	}
}

func TestRecoveryOneClubAndCounts(t *testing.T) {
	p := model.Params{
		K: 2, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
	club := pieceset.Full(2).Without(1)
	s, err := NewRecovery(p, 2, WithInitialPeers(map[pieceset.Set]int{club: 7}))
	if err != nil {
		t.Fatal(err)
	}
	if s.OneClub(1) != 7 || s.CountOf(club) != 7 {
		t.Errorf("one-club = %d, count = %d", s.OneClub(1), s.CountOf(club))
	}
	if s.OneClub(0) != 0 || s.OneClub(5) != 0 || s.Holders(0) != 0 {
		t.Error("out-of-range queries must return 0")
	}
}

func TestRecoveryRunUntilPeerLimit(t *testing.T) {
	p := ex1Params(50, 0.1, 1, 2)
	s, err := NewRecovery(p, 2, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	reason, err := s.RunUntil(1e9, 300)
	if err != nil {
		t.Fatal(err)
	}
	if reason != StopPeers || s.N() < 300 {
		t.Errorf("reason = %v, N = %d", reason, s.N())
	}
}
