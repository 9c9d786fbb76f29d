package model

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/pieceset"
)

func validParams() Params {
	return Params{
		K:     2,
		Us:    1,
		Mu:    1,
		Gamma: 2,
		Lambda: map[pieceset.Set]float64{
			pieceset.Empty: 1,
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := validParams().Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	p := validParams()
	p.Gamma = math.Inf(1)
	if err := p.Validate(); err != nil {
		t.Fatalf("γ=∞ rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Params)
		want error
	}{
		{"K too small", func(p *Params) { p.K = 0 }, ErrBadK},
		{"K too large", func(p *Params) { p.K = pieceset.MaxK + 1 }, ErrBadK},
		{"negative Us", func(p *Params) { p.Us = -1 }, ErrBadRate},
		{"NaN Us", func(p *Params) { p.Us = math.NaN() }, ErrBadRate},
		{"zero mu", func(p *Params) { p.Mu = 0 }, ErrBadMu},
		{"infinite mu", func(p *Params) { p.Mu = math.Inf(1) }, ErrBadMu},
		{"zero gamma", func(p *Params) { p.Gamma = 0 }, ErrBadGamma},
		{"NaN gamma", func(p *Params) { p.Gamma = math.NaN() }, ErrBadGamma},
		{"negative lambda", func(p *Params) {
			p.Lambda[pieceset.Empty] = -1
		}, ErrBadRate},
		{"lambda out of range", func(p *Params) {
			p.Lambda[pieceset.MustOf(3)] = 1 // K = 2
		}, ErrLambdaRange},
		{"no arrivals", func(p *Params) {
			p.Lambda = map[pieceset.Set]float64{}
		}, ErrNoArrivals},
		{"seed arrivals with gamma inf", func(p *Params) {
			p.Gamma = math.Inf(1)
			p.Lambda[pieceset.Full(p.K)] = 1
		}, ErrSeedArrival},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := validParams()
			p.Lambda = map[pieceset.Set]float64{pieceset.Empty: 1}
			tt.mut(&p)
			if err := p.Validate(); !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestLambdaTotals(t *testing.T) {
	p := validParams()
	p.Lambda[pieceset.MustOf(1)] = 2.5
	if got := p.LambdaTotal(); got != 3.5 {
		t.Errorf("LambdaTotal = %v", got)
	}
	if p.LambdaOf(pieceset.MustOf(1)) != 2.5 || p.LambdaOf(pieceset.MustOf(2)) != 0 {
		t.Error("LambdaOf wrong")
	}
}

func TestCanPieceEnter(t *testing.T) {
	p := Params{
		K: 3, Us: 0, Mu: 1, Gamma: 1,
		Lambda: map[pieceset.Set]float64{pieceset.MustOf(1, 2): 1},
	}
	if !p.CanPieceEnter(1) || !p.CanPieceEnter(2) {
		t.Error("pieces 1,2 should enter via arrivals")
	}
	if p.CanPieceEnter(3) {
		t.Error("piece 3 cannot enter")
	}
	if p.AllPiecesCanEnter() {
		t.Error("AllPiecesCanEnter should be false")
	}
	p.Us = 0.1
	if !p.AllPiecesCanEnter() {
		t.Error("seed makes every piece enter")
	}
}

func TestArrivalTypesSorted(t *testing.T) {
	p := validParams()
	p.Lambda = map[pieceset.Set]float64{
		pieceset.MustOf(2):    1,
		pieceset.Empty:        1,
		pieceset.MustOf(1):    0, // zero rate excluded
		pieceset.MustOf(1, 2): 3,
	}
	got := p.ArrivalTypes()
	want := []pieceset.Set{pieceset.Empty, pieceset.MustOf(2), pieceset.MustOf(1, 2)}
	if len(got) != len(want) {
		t.Fatalf("ArrivalTypes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArrivalTypes = %v, want %v", got, want)
		}
	}
}

func TestStateBasics(t *testing.T) {
	s := NewState(2)
	if len(s) != 4 || s.N() != 0 {
		t.Fatal("NewState malformed")
	}
	s[int(pieceset.MustOf(1))] = 3
	s[int(pieceset.Full(2))] = 2
	if s.N() != 5 {
		t.Errorf("N = %d", s.N())
	}
	if s.Count(pieceset.MustOf(1)) != 3 {
		t.Error("Count wrong")
	}
	c := s.Clone()
	c[0] = 99
	if s[0] == 99 {
		t.Error("Clone aliases memory")
	}
	if s.Key() == c.Key() {
		t.Error("distinct states share a key")
	}
}

// TestUploadRateSingleSeedTerm pins the Γ formula against a hand computation:
// K=2, one empty peer, seed only.
func TestUploadRateSeedOnly(t *testing.T) {
	p := Params{K: 2, Us: 3, Mu: 1, Gamma: 1,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1}}
	x := NewState(2)
	x[int(pieceset.Empty)] = 1
	// Γ_{∅,{1}} = (1/1)·(3/2 + 0) = 1.5 (no other peers hold piece 1).
	got := p.UploadRate(x, pieceset.Empty, 1)
	if math.Abs(got-1.5) > 1e-12 {
		t.Errorf("UploadRate = %v, want 1.5", got)
	}
}

// TestUploadRatePeerTerm pins the peer contribution of the Γ formula.
func TestUploadRatePeerTerm(t *testing.T) {
	p := Params{K: 2, Us: 0, Mu: 2, Gamma: 1,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1}}
	x := NewState(2)
	x[int(pieceset.Empty)] = 4            // targets
	x[int(pieceset.MustOf(1))] = 3        // hold piece 1, |S−C| = 1
	x[int(pieceset.Full(2))] = 2          // hold both, |S−C| = 2
	n := float64(x.N())                   // 9
	want := 4.0 / n * 2 * (3.0/1 + 2.0/2) // (x_C/n)·µ·Σ x_S/|S−C|
	got := p.UploadRate(x, pieceset.Empty, 1)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("UploadRate = %v, want %v", got, want)
	}
}

func TestUploadRateEdgeCases(t *testing.T) {
	p := validParams()
	x := NewState(2)
	if p.UploadRate(x, pieceset.Empty, 1) != 0 {
		t.Error("empty system must have zero rate")
	}
	x[int(pieceset.MustOf(1))] = 1
	if p.UploadRate(x, pieceset.MustOf(1), 1) != 0 {
		t.Error("i ∈ C must have zero rate")
	}
	if p.UploadRate(x, pieceset.MustOf(1), 0) != 0 ||
		p.UploadRate(x, pieceset.MustOf(1), 3) != 0 {
		t.Error("out-of-range piece must have zero rate")
	}
	if p.UploadRate(x, pieceset.Empty, 1) != 0 {
		t.Error("x_C = 0 must have zero rate")
	}
	if p.UploadRate(NewState(3), pieceset.Empty, 1) != 0 {
		t.Error("mismatched state must yield zero")
	}
}

func TestTransitionsConservation(t *testing.T) {
	// From a generic state, every transition changes total peers by at most
	// one and keeps counts non-negative.
	p := validParams()
	p.Lambda[pieceset.MustOf(1)] = 0.5
	x := NewState(2)
	x[int(pieceset.Empty)] = 2
	x[int(pieceset.MustOf(1))] = 1
	x[int(pieceset.Full(2))] = 1
	ts, err := p.Transitions(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) == 0 {
		t.Fatal("no transitions from busy state")
	}
	for _, tr := range ts {
		if tr.Rate <= 0 {
			t.Errorf("non-positive rate %v (%v)", tr.Rate, tr.Kind)
		}
		dn := tr.Next.N() - x.N()
		if dn < -1 || dn > 1 {
			t.Errorf("transition changes N by %d", dn)
		}
		for i, c := range tr.Next {
			if c < 0 {
				t.Errorf("negative count at type %d after %v", i, tr.Kind)
			}
		}
	}
}

func TestTransitionsGammaInfDeparture(t *testing.T) {
	p := Params{K: 2, Us: 1, Mu: 1, Gamma: math.Inf(1),
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1}}
	x := NewState(2)
	x[int(pieceset.MustOf(1))] = 1 // one piece short of full
	ts, err := p.Transitions(x)
	if err != nil {
		t.Fatal(err)
	}
	sawFinish := false
	for _, tr := range ts {
		if tr.Kind == KindFinishDeparture {
			sawFinish = true
			if tr.Next.N() != 0 {
				t.Error("finish-departure must remove the peer")
			}
			if tr.Next.Count(pieceset.Full(2)) != 0 {
				t.Error("γ=∞ must keep x_F at zero")
			}
		}
		if tr.Kind == KindSeedDeparture {
			t.Error("γ=∞ has no seed departures")
		}
	}
	if !sawFinish {
		t.Error("expected a finish-departure transition")
	}
}

func TestTransitionsSeedDepartureRate(t *testing.T) {
	p := validParams() // γ = 2
	x := NewState(2)
	x[int(pieceset.Full(2))] = 5
	ts, err := p.Transitions(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ts {
		if tr.Kind == KindSeedDeparture {
			if math.Abs(tr.Rate-10) > 1e-12 { // γ·x_F = 2·5
				t.Errorf("seed departure rate = %v, want 10", tr.Rate)
			}
			return
		}
	}
	t.Error("missing seed departure transition")
}

func TestTotalRateMatchesSum(t *testing.T) {
	p := validParams()
	x := NewState(2)
	x[int(pieceset.Empty)] = 3
	x[int(pieceset.Full(2))] = 1
	total, err := p.TotalRate(x)
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := p.Transitions(x)
	var sum float64
	for _, tr := range ts {
		sum += tr.Rate
	}
	if math.Abs(total-sum) > 1e-12 {
		t.Errorf("TotalRate = %v, sum = %v", total, sum)
	}
}

func TestDriftOfN(t *testing.T) {
	// Drift of N must equal λ_total − (departure rates).
	p := validParams() // λ_total = 1, γ = 2
	x := NewState(2)
	x[int(pieceset.Full(2))] = 3
	drift, err := p.Drift(x, func(s State) float64 { return float64(s.N()) })
	if err != nil {
		t.Fatal(err)
	}
	want := p.LambdaTotal() - p.Gamma*3
	if math.Abs(drift-want) > 1e-12 {
		t.Errorf("drift = %v, want %v", drift, want)
	}
}

func TestTransitionsStateMismatch(t *testing.T) {
	p := validParams()
	if _, err := p.Transitions(NewState(3)); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("err = %v", err)
	}
	if _, err := p.TotalRate(NewState(3)); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("err = %v", err)
	}
	if _, err := p.Drift(NewState(3), func(State) float64 { return 0 }); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("err = %v", err)
	}
}

// Property: at any state, Σ_i Γ_{C,C∪{i}} summed over all C with uploads
// equals the total upload activity, which is bounded by U_s + µ·n (each
// clock can produce at most one transfer).
func TestQuickUploadRateBounded(t *testing.T) {
	p := Params{K: 3, Us: 2, Mu: 1.5, Gamma: 1,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1}}
	f := func(raw [8]uint8) bool {
		x := NewState(3)
		for i := range x {
			x[i] = int(raw[i] % 5)
		}
		if x.N() == 0 {
			return true
		}
		var total float64
		for cIdx := range x {
			c := pieceset.Set(cIdx)
			for i := 1; i <= 3; i++ {
				total += p.UploadRate(x, c, i)
			}
		}
		return total <= p.Us+p.Mu*float64(x.N())+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTransitionKindString(t *testing.T) {
	for _, k := range []TransitionKind{KindArrival, KindUpload, KindSeedDeparture, KindFinishDeparture} {
		if k.String() == "" {
			t.Errorf("empty name for kind %d", k)
		}
	}
	if TransitionKind(99).String() != "kind(99)" {
		t.Error("unknown kind must render numerically")
	}
}

func TestParamsString(t *testing.T) {
	p := validParams()
	if s := p.String(); s == "" {
		t.Error("String empty")
	}
	p.Gamma = math.Inf(1)
	if s := p.String(); s == "" {
		t.Error("String with γ=∞ empty")
	}
}

// BenchmarkGeneratorTransitions measures generator-row enumeration, the
// exact solver's inner loop.
func BenchmarkGeneratorTransitions(b *testing.B) {
	p := Params{
		K: 4, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
	x := NewState(4)
	for i := range x {
		x[i] = i % 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Transitions(x); err != nil {
			b.Fatal(err)
		}
	}
}
