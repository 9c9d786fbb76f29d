package lyapunov

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/pieceset"
)

func stableK2() model.Params {
	// K=2, thresholds: piece k: (Us + λ_total-ish)/(1−µ/γ) — chosen well
	// inside the stable region: λ_total = 0.5 ≪ threshold 2·(1) = 2.
	return model.Params{
		K: 2, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 0.5},
	}
}

func transientK2() model.Params {
	// λ_total = 8 ≫ threshold 2.
	return model.Params{
		K: 2, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 8},
	}
}

func gammaLeMuK2() model.Params {
	return model.Params{
		K: 2, Us: 1, Mu: 2, Gamma: 1,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 3},
	}
}

func TestNewValidation(t *testing.T) {
	p := stableK2()
	good, err := DefaultConstants(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(p, good); err != nil {
		t.Fatalf("good constants rejected: %v", err)
	}
	bad := []Constants{
		{R: 0, D: 10, Beta: 0.01, Alpha: 0.9},
		{R: 0.6, D: 10, Beta: 0.01, Alpha: 0.9},
		{R: 0.1, D: 0.5, Beta: 0.01, Alpha: 0.9},
		{R: 0.1, D: 10, Beta: 0.6, Alpha: 0.9},
		{R: 0.1, D: 10, Beta: 0.01, Alpha: 0.3}, // α out of range for µ<γ
	}
	for i, c := range bad {
		if _, err := New(p, c); err == nil {
			t.Errorf("bad[%d] accepted", i)
		}
	}
	if _, err := New(model.Params{}, good); err == nil {
		t.Error("invalid params accepted")
	}
	// γ ≤ µ branch requires P.
	if _, err := New(gammaLeMuK2(), Constants{R: 0.1, D: 10, Beta: 0.001}); !errors.Is(err, ErrWrongBranch) {
		t.Errorf("missing P err = %v", err)
	}
}

func TestPhiShape(t *testing.T) {
	p := stableK2()
	c, err := DefaultConstants(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(p, c)
	if err != nil {
		t.Fatal(err)
	}
	d, beta := c.D, c.Beta
	// Continuity at the joins.
	for _, x := range []float64{2 * d, 2*d + 1/beta} {
		lo := e.Phi(x - 1e-9)
		hi := e.Phi(x + 1e-9)
		if math.Abs(lo-hi) > 1e-6*(1+lo) {
			t.Errorf("φ discontinuous at %v: %v vs %v", x, lo, hi)
		}
	}
	// Slope −1 region.
	if got := e.Phi(0) - e.Phi(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("slope on [0,2d] = %v, want 1", got)
	}
	// Zero beyond the support, non-negative and decreasing everywhere.
	if e.Phi(2*d+1/beta+1) != 0 {
		t.Error("φ must vanish beyond 2d+1/β")
	}
	prev := math.Inf(1)
	for x := 0.0; x < 2*d+1/beta+5; x += d / 7 {
		v := e.Phi(x)
		if v < 0 || v > prev+1e-12 {
			t.Fatalf("φ not non-increasing/non-negative at %v: %v after %v", x, v, prev)
		}
		prev = v
	}
	// M_φ bounds φ.
	if e.Phi(0) >= e.MPhi() {
		t.Errorf("φ(0) = %v not below M_φ = %v", e.Phi(0), e.MPhi())
	}
	// Negative inputs clamp to φ(0).
	if e.Phi(-3) != e.Phi(0) {
		t.Error("negative input must clamp")
	}
}

func TestECHC(t *testing.T) {
	p := stableK2()
	c, _ := DefaultConstants(p)
	e, err := New(p, c)
	if err != nil {
		t.Fatal(err)
	}
	x := model.NewState(2)
	x[int(pieceset.Empty)] = 3
	x[int(pieceset.MustOf(1))] = 2
	x[int(pieceset.Full(2))] = 1
	// E_{1}: subsets of {1} are ∅ and {1} → 5. E_F = n = 6.
	if got := e.EC(x, pieceset.MustOf(1)); got != 5 {
		t.Errorf("E_{1} = %v, want 5", got)
	}
	if got := e.EC(x, pieceset.Full(2)); got != 6 {
		t.Errorf("E_F = %v, want 6", got)
	}
	// H_{1}: types ⊄ {1} are F (K−2+r = 0.5 each... K=2,|F|=2 → 0+0.5).
	// ratio = 0.5 → H = (1·0.5)/(1−0.5) = 1.
	if got := e.HC(x, pieceset.MustOf(1)); math.Abs(got-1) > 1e-12 {
		t.Errorf("H_{1} = %v, want 1", got)
	}
	// H_F = 0 by definition.
	if got := e.HC(x, pieceset.Full(2)); got != 0 {
		t.Errorf("H_F = %v, want 0", got)
	}
}

func TestWNonNegativeAndQuadratic(t *testing.T) {
	p := stableK2()
	c, _ := DefaultConstants(p)
	e, err := New(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if e.W(model.NewState(2)) != 0 {
		t.Error("W(empty) must be 0")
	}
	// W grows like n² along a one-club ray (for n large enough that the
	// quadratic term dominates the linear α·E·φ term).
	club := int(pieceset.Full(2).Without(1))
	x := model.NewState(2)
	x[club] = 10000
	wSmall := e.W(x)
	x[club] = 20000
	wLarge := e.W(x)
	if wSmall <= 0 || wLarge <= 0 {
		t.Fatalf("W not positive: %v, %v", wSmall, wLarge)
	}
	ratio := wLarge / wSmall
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("W(2n)/W(n) = %v, want ≈ 4", ratio)
	}
}

// TestDriftNegativeStableClassI is experiment E11's core assertion: in the
// provably stable regime, the drift of W is negative (and scales like −n)
// on every large class-I state.
func TestDriftNegativeStableClassI(t *testing.T) {
	p := stableK2()
	c, err := DefaultConstants(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(p, c)
	if err != nil {
		t.Fatal(err)
	}
	states := ClassIStates(p.K, []int{200, 400, 800})
	rep, err := e.ScanDrift(states)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned == 0 {
		t.Fatal("no states scanned")
	}
	if !rep.AllNegative {
		t.Errorf("drift not uniformly negative: max QW/n = %v", rep.MaxDriftPerN)
	}
}

// TestDriftNegativeStableClassII covers the two-heavy-group states.
func TestDriftNegativeStableClassII(t *testing.T) {
	p := stableK2()
	c, _ := DefaultConstants(p)
	e, err := New(p, c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.ScanDrift(ClassIIStates(p.K, []int{200, 400, 800}))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllNegative {
		t.Errorf("class II drift not negative: max QW/n = %v", rep.MaxDriftPerN)
	}
}

// TestDriftPositiveTransientOneClub: in the transient regime, the same
// function has positive drift on large one-club states — no Foster–Lyapunov
// certificate exists there, matching Theorem 1(a).
func TestDriftPositiveTransientOneClub(t *testing.T) {
	p := transientK2()
	c, err := DefaultConstants(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(p, c)
	if err != nil {
		t.Fatal(err)
	}
	x := model.NewState(2)
	x[int(pieceset.Full(2).Without(1))] = 500 // huge one-club
	d, err := e.Drift(x)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("transient one-club drift = %v, want positive", d)
	}
}

// TestDriftNegativeGammaLeMu exercises the W′ branch: γ ≤ µ with a seed.
func TestDriftNegativeGammaLeMu(t *testing.T) {
	p := gammaLeMuK2()
	c, err := DefaultConstants(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if !e.GammaLeMu() {
		t.Fatal("expected γ ≤ µ branch")
	}
	// The Foster–Lyapunov inequality only needs to hold for n ≥ n₀; for
	// these constants the drift turns uniformly negative around n ≈ 600.
	rep, err := e.ScanDrift(ClassIStates(p.K, []int{600, 1200, 2400}))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllNegative {
		t.Errorf("W′ drift not negative: max QW/n = %v", rep.MaxDriftPerN)
	}
}

func TestDriftGammaInfBranch(t *testing.T) {
	p := model.Params{
		K: 2, Us: 2, Mu: 1, Gamma: math.Inf(1),
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 0.5},
	}
	c, err := DefaultConstants(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(p, c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.ScanDrift(ClassIStates(p.K, []int{200, 500}))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllNegative {
		t.Errorf("γ=∞ drift not negative: max QW/n = %v", rep.MaxDriftPerN)
	}
}

func TestDefaultConstantsErrors(t *testing.T) {
	if _, err := DefaultConstants(model.Params{}); err == nil {
		t.Error("invalid params accepted")
	}
	// γ ≤ µ with no way for pieces to enter: condition (44) unsatisfiable.
	p := model.Params{
		K: 2, Us: 0, Mu: 2, Gamma: 1,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
	if _, err := DefaultConstants(p); err == nil {
		t.Error("unsatisfiable (44) accepted")
	}
}

func TestStateBuilders(t *testing.T) {
	s1 := ClassIStates(2, []int{10, 20})
	if len(s1) == 0 {
		t.Fatal("no class I states")
	}
	for _, x := range s1 {
		if x.N() < 10 {
			t.Errorf("class I state too small: %v", x)
		}
	}
	s2 := ClassIIStates(3, []int{10})
	if len(s2) != 1 || s2[0].N() != 10 {
		t.Errorf("class II states = %v", s2)
	}
	if len(ClassIIStates(1, []int{10})) != 0 {
		t.Error("K=1 has no class II states")
	}
	if len(ClassIStates(2, []int{2})) != 0 {
		t.Error("sizes below 4 must be skipped")
	}
}

// TestQuickDriftNegativeRandomHeavyStates: random class-I-like states (one
// dominant type plus small noise) in the stable regime must all have
// negative drift once n is large.
func TestQuickDriftNegativeRandomHeavyStates(t *testing.T) {
	p := stableK2()
	c, err := DefaultConstants(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(p, c)
	if err != nil {
		t.Fatal(err)
	}
	f := func(rawType uint8, rawNoise [4]uint8) bool {
		heavy := pieceset.Set(rawType) & pieceset.Full(2)
		if heavy.IsFull(2) {
			heavy = pieceset.MustOf(1)
		}
		x := model.NewState(2)
		x[int(heavy)] = 3000
		for i := range x {
			x[i] += int(rawNoise[i] % 8) // small contamination
		}
		d, err := e.Drift(x)
		if err != nil {
			return false
		}
		return d < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// BenchmarkLyapunovDrift measures one exact drift evaluation QW(x).
func BenchmarkLyapunovDrift(b *testing.B) {
	p := model.Params{
		K: 3, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
	c, err := DefaultConstants(p)
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(p, c)
	if err != nil {
		b.Fatal(err)
	}
	x := model.NewState(3)
	x[int(pieceset.Full(3).Without(1))] = 1000
	x[int(pieceset.Full(3))] = 3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Drift(x); err != nil {
			b.Fatal(err)
		}
	}
}
