package codedsim

import (
	"math"
	"testing"

	"repro/internal/gf"
	"repro/internal/stability"
)

func basicParams(q, k int, gamma float64) stability.CodedParams {
	f := gf.MustNew(q)
	return stability.CodedParams{
		K: k, Field: f, Us: 1, Mu: 1, Gamma: gamma,
		Arrivals: []stability.CodedArrival{
			{V: gf.ZeroSubspace(f, k), Rate: 1},
		},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(stability.CodedParams{}); err == nil {
		t.Error("invalid params accepted")
	}
	p := basicParams(2, 2, 1)
	if _, err := New(p, WithRandomGiftRate(-1)); err == nil {
		t.Error("negative gift rate accepted")
	}
	if _, err := New(p, WithInitialPeers(nil, 1)); err == nil {
		t.Error("nil initial subspace accepted")
	}
	if _, err := New(p, WithInitialPeers(gf.ZeroSubspace(p.Field, 3), 1)); err == nil {
		t.Error("wrong-ambient initial subspace accepted")
	}
	if _, err := New(p, WithInitialPeers(gf.ZeroSubspace(p.Field, 2), -1)); err == nil {
		t.Error("negative initial count accepted")
	}
	pInf := basicParams(2, 2, math.Inf(1))
	if _, err := New(pInf, WithInitialPeers(gf.FullSubspace(pInf.Field, 2), 1)); err == nil {
		t.Error("initial full peers with γ=∞ accepted")
	}
}

func TestGiftOnlyArrivalsAccepted(t *testing.T) {
	// Params whose entire arrival mass comes from the random-gift stream
	// must be accepted even though p.Arrivals alone has zero rate.
	f := gf.MustNew(2)
	p := stability.CodedParams{K: 2, Field: f, Us: 1, Mu: 1, Gamma: math.Inf(1)}
	s, err := New(p, WithRandomGiftRate(1))
	if err != nil {
		t.Fatalf("gift-only params rejected: %v", err)
	}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	p := basicParams(4, 3, 2)
	a, err := New(p, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(p, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := a.Step(); err != nil {
			t.Fatal(err)
		}
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
		if a.N() != b.N() || a.Now() != b.Now() || a.FullPeers() != b.FullPeers() {
			t.Fatalf("paths diverge at step %d", i)
		}
	}
}

func TestInvariants(t *testing.T) {
	p := basicParams(2, 3, 1.5)
	s, err := New(p, WithSeed(9), WithRandomGiftRate(0.5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15000; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		dims := s.DimCounts()
		total := 0
		for d, c := range dims {
			if c < 0 {
				t.Fatalf("negative count at dim %d", d)
			}
			total += c
		}
		if total != s.N() {
			t.Fatalf("dim counts sum %d ≠ N %d", total, s.N())
		}
		if dims[p.K] != s.FullPeers() {
			t.Fatalf("full peers mismatch: %d vs %d", dims[p.K], s.FullPeers())
		}
	}
	st := s.Stats()
	if st.Arrivals-st.Departures != uint64(s.N()) {
		t.Errorf("flow conservation: %d − %d ≠ %d", st.Arrivals, st.Departures, s.N())
	}
	if st.Uploads == 0 || st.NoOps == 0 {
		t.Error("expected both useful and useless transfers")
	}
}

func TestGammaInfNoFullPeers(t *testing.T) {
	p := basicParams(2, 2, math.Inf(1))
	s, err := New(p, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if s.FullPeers() != 0 {
			t.Fatal("full peer retained under γ=∞")
		}
	}
	if s.Stats().Departures == 0 {
		t.Error("no decode-and-depart events")
	}
}

// TestStableCodedSystemBounded: strong seed and γ ≤ µ̃ keeps the population
// small (Theorem 15(b), second bullet).
func TestStableCodedSystemBounded(t *testing.T) {
	f := gf.MustNew(4)
	p := stability.CodedParams{
		K: 2, Field: f, Us: 2, Mu: 1, Gamma: 0.5, // γ < µ̃ = 0.75
		Arrivals: []stability.CodedArrival{
			{V: gf.ZeroSubspace(f, 2), Rate: 1},
		},
	}
	a, err := stability.ClassifyCoded(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Verdict != stability.PositiveRecurrent {
		t.Fatalf("expected provably recurrent params, got %v", a.Verdict)
	}
	s, err := New(p, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(300, 0); err != nil {
		t.Fatal(err)
	}
	s.ResetOccupancy()
	if err := s.RunUntil(2300, 0); err != nil {
		t.Fatal(err)
	}
	if s.MeanPeers() > 30 {
		t.Errorf("mean population %v too large for a stable system", s.MeanPeers())
	}
}

// TestCodedGiftedBeatsUncoded reproduces the qualitative claim of Theorem
// 15's example: with γ = ∞, U_s = 0 and a gifted fraction f above the coded
// recurrence threshold, the coded system drains while the uncoded analogue
// is transient for any f < 1. Here we verify the coded side stays bounded.
func TestCodedGiftedBeatsUncoded(t *testing.T) {
	const q, k = 4, 2
	hi := stability.GiftedRecurrentThreshold(q, k) // ≈ 0.889
	fFrac := 0.95
	if fFrac <= hi {
		t.Fatal("test fraction must exceed the threshold")
	}
	f := gf.MustNew(q)
	p := stability.CodedParams{
		K: k, Field: f, Us: 0, Mu: 1, Gamma: math.Inf(1),
		Arrivals: []stability.CodedArrival{
			{V: gf.ZeroSubspace(f, k), Rate: 1 - fFrac}, // empty arrivals
		},
	}
	s, err := New(p, WithSeed(21), WithRandomGiftRate(fFrac))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(200, 0); err != nil {
		t.Fatal(err)
	}
	s.ResetOccupancy()
	if err := s.RunUntil(2200, 0); err != nil {
		t.Fatal(err)
	}
	if s.MeanPeers() > 40 {
		t.Errorf("coded gifted system mean %v looks transient", s.MeanPeers())
	}
}

// TestCodedGiftedBelowThresholdGrows exercises the transient side of the
// gifted example: f far below q/((q−1)K) leaves the missing-dimension
// syndrome in force and the population grows.
func TestCodedGiftedBelowThresholdGrows(t *testing.T) {
	const q, k = 2, 8
	lo := stability.GiftedTransientThreshold(q, k) // 2/8 = 0.25
	fFrac := lo / 5
	f := gf.MustNew(q)
	p := stability.CodedParams{
		K: k, Field: f, Us: 0, Mu: 1, Gamma: math.Inf(1),
		Arrivals: []stability.CodedArrival{
			{V: gf.ZeroSubspace(f, k), Rate: 1 - fFrac},
		},
	}
	s, err := New(p, WithSeed(33), WithRandomGiftRate(fFrac))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(800, 4000); err != nil {
		t.Fatal(err)
	}
	// Either the peer cap fired or the population ended large; both signal
	// growth. A stable system at these rates would hover near single digits.
	if s.N() < 60 {
		t.Errorf("population %d did not grow in the transient regime", s.N())
	}
}

func TestTracePeerCap(t *testing.T) {
	// Strongly transient coded system (no gifts, no seed, γ=∞ would have
	// no piece source; use tiny gift rate instead) hits the cap.
	f := gf.MustNew(2)
	p := stability.CodedParams{
		K: 4, Field: f, Us: 0, Mu: 1, Gamma: math.Inf(1),
		Arrivals: []stability.CodedArrival{
			{V: gf.ZeroSubspace(f, 4), Rate: 5},
		},
	}
	s, err := New(p, WithSeed(19), WithRandomGiftRate(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(1e9, 200); err != nil {
		t.Fatal(err)
	}
	if s.N() < 200 {
		t.Errorf("cap did not fire: N = %d at t = %v", s.N(), s.Now())
	}
}
