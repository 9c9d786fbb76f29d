package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pieceset"
)

func ex1Params(lambda0, us, mu, gamma float64) model.Params {
	return model.Params{
		K: 1, Us: us, Mu: mu, Gamma: gamma,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: lambda0},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(model.Params{}); err == nil {
		t.Error("invalid params accepted")
	}
	p := ex1Params(1, 1, 1, 2)
	if _, err := New(p, WithInitialPeers(map[pieceset.Set]int{pieceset.MustOf(2): 1})); err == nil {
		t.Error("out-of-range initial type accepted")
	}
	if _, err := New(p, WithInitialPeers(map[pieceset.Set]int{pieceset.Empty: -1})); err == nil {
		t.Error("negative initial count accepted")
	}
	pInf := ex1Params(1, 1, 1, math.Inf(1))
	if _, err := New(pInf, WithInitialPeers(map[pieceset.Set]int{pieceset.Full(1): 2})); err == nil {
		t.Error("initial peer seeds with γ=∞ accepted")
	}
}

func TestDeterministicReplay(t *testing.T) {
	p := ex1Params(1, 1, 1, 2)
	a, err := New(p, WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(p, WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
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
	if a.Stats() != b.Stats() {
		t.Error("stats diverge between identical seeds")
	}
}

func TestInvariantsUnderLoad(t *testing.T) {
	p := model.Params{
		K: 3, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{
			pieceset.Empty:        2,
			pieceset.MustOf(1):    0.5,
			pieceset.MustOf(2, 3): 0.3,
		},
	}
	s, err := New(p, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		// Population equals sum of counts; piece holders consistent.
		total := 0
		holders := make([]int, p.K)
		for c, v := range s.SparseCounts() {
			if v <= 0 {
				t.Fatalf("non-positive count for %v", c)
			}
			total += v
			for _, pc := range c.Pieces() {
				holders[pc-1] += v
			}
		}
		if total != s.N() {
			t.Fatalf("N = %d but counts sum to %d", s.N(), total)
		}
		for k := 1; k <= p.K; k++ {
			if holders[k-1] != s.Holders(k) {
				t.Fatalf("holder mismatch for piece %d: %d vs %d",
					k, holders[k-1], s.Holders(k))
			}
			if s.Missing(k) != s.N()-s.Holders(k) {
				t.Fatal("Missing inconsistent")
			}
		}
	}
	st := s.Stats()
	if st.Events == 0 || st.Arrivals == 0 {
		t.Error("no events recorded")
	}
	if st.Arrivals-st.Departures != uint64(s.N()) {
		t.Errorf("flow conservation: %d arrivals − %d departures ≠ %d peers",
			st.Arrivals, st.Departures, s.N())
	}
}

func TestGammaInfNeverHoldsSeeds(t *testing.T) {
	p := model.Params{
		K: 2, Us: 2, Mu: 1, Gamma: math.Inf(1),
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
	s, err := New(p, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if s.PeerSeeds() != 0 {
			t.Fatal("peer seed present despite γ=∞")
		}
	}
	if s.Stats().Departures == 0 {
		t.Error("no completions in a heavily-seeded system")
	}
}

// TestStableSystemReturnsToEmpty: in a clearly stable configuration the
// chain keeps revisiting small states (positive recurrence in action).
func TestStableSystemReturnsToEmpty(t *testing.T) {
	p := ex1Params(0.5, 1, 1, 2) // threshold 2, λ0 = 0.5 well inside
	s, err := New(p, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	emptyVisits := 0
	for s.Now() < 2000 {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if s.N() == 0 {
			emptyVisits++
		}
	}
	if emptyVisits < 10 {
		t.Errorf("stable system visited empty state only %d times", emptyVisits)
	}
	if s.MeanPeers() > 10 {
		t.Errorf("mean population %v too high for a stable system", s.MeanPeers())
	}
}

// TestTransientSystemGrows: above the Example 1 threshold the population
// grows roughly linearly.
func TestTransientSystemGrows(t *testing.T) {
	p := ex1Params(6, 1, 1, 2) // threshold 2; drift ≈ 6 − 2 = 4 peers/unit
	s, err := New(p, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 200.0
	if _, err := s.RunUntil(horizon, 0); err != nil {
		t.Fatal(err)
	}
	growth := float64(s.N()) / horizon
	if growth < 2 || growth > 6 {
		t.Errorf("growth rate = %v peers/unit, want ≈ 4", growth)
	}
}

func TestRunUntilPeerLimit(t *testing.T) {
	p := ex1Params(50, 0.1, 1, 2) // wildly transient
	s, err := New(p, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	reason, err := s.RunUntil(1e9, 500)
	if err != nil {
		t.Fatal(err)
	}
	if reason != StopPeers {
		t.Errorf("reason = %v, want peer limit", reason)
	}
	if s.N() < 500 {
		t.Errorf("stopped at N = %d", s.N())
	}
}

func TestInitialPeersAndOneClub(t *testing.T) {
	p := model.Params{
		K: 3, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
	oneClub := pieceset.Full(3).Without(1)
	s, err := New(p, WithInitialPeers(map[pieceset.Set]int{oneClub: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 100 || s.OneClub(1) != 100 {
		t.Fatalf("N = %d, one-club = %d", s.N(), s.OneClub(1))
	}
	if s.Holders(2) != 100 || s.Holders(1) != 0 {
		t.Error("holders mismatch for initial one-club")
	}
	if s.OneClub(0) != 0 || s.OneClub(9) != 0 {
		t.Error("out-of-range one-club must be 0")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	p := model.Params{
		K: 2, Us: 1, Mu: 1, Gamma: 1,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
	init := map[pieceset.Set]int{
		pieceset.Empty:     2,
		pieceset.MustOf(1): 1,
		pieceset.Full(2):   3,
	}
	s, err := New(p, WithInitialPeers(init))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.N() != 6 || st.Count(pieceset.Full(2)) != 3 {
		t.Errorf("snapshot = %v", st)
	}
}

func TestSnapshotRejectsLargeK(t *testing.T) {
	p := model.Params{
		K: 17, Us: 1, Mu: 1, Gamma: 1,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); !errors.Is(err, ErrTooManyPieces) {
		t.Errorf("err = %v", err)
	}
}

// TestTrace: the standard trajectory series, attached through an obs.Set,
// sample one shared increasing ladder, and never count more peers missing
// the traced piece than there are peers.
func TestTrace(t *testing.T) {
	p := ex1Params(3, 1, 1, 2)
	s, err := New(p, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	series := s.TraceSeries(0, 50, 1, 1)
	set := obs.NewSet()
	for _, sr := range series {
		set.Add(sr)
	}
	s.SetTap(set)
	if _, err := s.RunUntil(50, 0); err != nil {
		t.Fatal(err)
	}
	set.Seal(s.Now())
	n, missing := series[0].Points(), series[3].Points()
	if len(n) < 45 {
		t.Fatalf("trace too short: %d points", len(n))
	}
	for _, sr := range series {
		if len(sr.Points()) != len(n) {
			t.Fatalf("series %d points, want the shared ladder's %d", len(sr.Points()), len(n))
		}
	}
	for i := range n {
		if i > 0 && n[i].T <= n[i-1].T {
			t.Fatal("trace times not increasing")
		}
		if missing[i].T != n[i].T || n[i].V < 0 || missing[i].V > n[i].V {
			t.Fatalf("inconsistent trace point %d: n=%+v missing=%+v", i, n[i], missing[i])
		}
	}
}

// TestObserverStopsRunUntil: a stopping population watch attached through
// SetTap ends RunUntil with StopObserver at the hitting event.
func TestObserverStopsRunUntil(t *testing.T) {
	s, err := New(ex1Params(8, 1, 1, 2), WithSeed(3)) // transient: N grows
	if err != nil {
		t.Fatal(err)
	}
	w := obs.NewPopulationWatch("n50", 50, true)
	s.SetTap(obs.NewSet(w))
	reason, err := s.RunUntil(1e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reason != StopObserver {
		t.Fatalf("reason = %v, want StopObserver", reason)
	}
	if !w.Hit() || s.N() < 50 {
		t.Errorf("hit=%v N=%d at t=%v", w.Hit(), s.N(), w.Time())
	}
	if reason.String() != "observer-halt" {
		t.Errorf("StopObserver.String() = %q", reason.String())
	}
}

func TestResetOccupancy(t *testing.T) {
	p := ex1Params(5, 0.1, 1, 2) // transient: N drifts up
	s, err := New(p, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunUntil(50, 0); err != nil {
		t.Fatal(err)
	}
	before := s.MeanPeers()
	s.ResetOccupancy()
	if _, err := s.RunUntil(100, 0); err != nil {
		t.Fatal(err)
	}
	after := s.MeanPeers()
	if after <= before {
		t.Errorf("post-reset mean %v not above pre-reset %v in growing system", after, before)
	}
}

// TestMeanHoldingTime verifies event timing: from a frozen single-peer
// state, the mean time step matches 1/(total rate).
func TestMeanHoldingTime(t *testing.T) {
	p := ex1Params(1, 1, 1, 2) // with one empty peer: λ+Us+µ·1 = 3
	var total float64
	const trials = 20000
	for i := 0; i < trials; i++ {
		s, err := New(p, WithSeed(uint64(i)+1),
			WithInitialPeers(map[pieceset.Set]int{pieceset.Empty: 1}))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		total += s.Now()
	}
	mean := total / trials
	want := 1.0 / 3.0
	if math.Abs(mean-want) > 0.01 {
		t.Errorf("mean holding time = %v, want %v", mean, want)
	}
}

func TestStopReasonString(t *testing.T) {
	if StopTime.String() == "" || StopPeers.String() == "" {
		t.Error("empty stop reason name")
	}
	if StopReason(9).String() != "stop(9)" {
		t.Error("unknown reason must render numerically")
	}
}

// TestOneMorePieceDrainsHugeOneClub is the corollary as failure recovery:
// γ ≤ µ, a massive one-club, and almost no seed — the system still drains,
// because every rescued peer seeds one extra piece on average.
func TestOneMorePieceDrainsHugeOneClub(t *testing.T) {
	p := model.Params{
		K: 2, Us: 0.05, Mu: 1, Gamma: 1, // γ = µ: the corollary regime
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 0.1},
	}
	club := pieceset.Full(2).Without(1)
	s, err := New(p, WithSeed(77),
		WithInitialPeers(map[pieceset.Set]int{club: 5000}))
	if err != nil {
		t.Fatal(err)
	}
	// The branching process of piece-1 holders is critical (µ/γ = 1), so
	// the club drains; give it a generous horizon.
	if _, err := s.RunUntil(4000, 0); err != nil {
		t.Fatal(err)
	}
	if s.OneClub(1) > 500 {
		t.Errorf("one-club still at %d of %d peers", s.OneClub(1), s.N())
	}
}

// TestContrastGammaInfTrapsOneClub: the same initial state with γ = ∞ and
// few gifted arrivals stays trapped — transience per Theorem 1.
func TestContrastGammaInfTrapsOneClub(t *testing.T) {
	p := model.Params{
		K: 2, Us: 0.05, Mu: 1, Gamma: math.Inf(1),
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
	club := pieceset.Full(2).Without(1)
	s, err := New(p, WithSeed(78),
		WithInitialPeers(map[pieceset.Set]int{club: 5000}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunUntil(300, 0); err != nil {
		t.Fatal(err)
	}
	if s.OneClub(1) < 5000 {
		t.Errorf("one-club shrank to %d despite γ=∞ and λ ≫ U_s", s.OneClub(1))
	}
}

// TestCurrentRatesDominateGenerator: the simulator's event race runs at
// least as fast as the generator's total effective rate (the excess is
// exactly the no-op contact rate), and the departure/arrival components
// match the generator's exactly.
func TestCurrentRatesDominateGenerator(t *testing.T) {
	p := model.Params{
		K: 2, Us: 1.5, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 0.7},
	}
	s, err := New(p, WithSeed(91), WithInitialPeers(map[pieceset.Set]int{
		pieceset.Empty:     3,
		pieceset.MustOf(1): 2,
		pieceset.Full(2):   2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		r := s.CurrentRates()
		if math.Abs(r.Total-(r.Arrival+r.Seed+r.Peer+r.Departure)) > 1e-12 {
			t.Fatal("rate components do not sum")
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		gen, err := p.TotalRate(snap)
		if err != nil {
			t.Fatal(err)
		}
		if gen > r.Total+1e-9 {
			t.Fatalf("generator rate %v exceeds event race %v", gen, r.Total)
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSequentialPolicyPrefixInvariant: under sequential-lowest selection,
// starting from prefix-shaped states, every peer always holds a prefix
// {1..j} — the minimal closed set of states described in Section VIII-A.
func TestSequentialPolicyPrefixInvariant(t *testing.T) {
	p := model.Params{
		K: 4, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
	s, err := New(p, WithSeed(15), WithPolicy(SequentialLowest{}))
	if err != nil {
		t.Fatal(err)
	}
	isPrefix := func(c pieceset.Set) bool {
		for j := 1; j <= p.K; j++ {
			if !c.Has(j) {
				return c>>uint(j-1) == 0
			}
		}
		return true
	}
	for i := 0; i < 30000; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		for c := range s.SparseCounts() {
			if !isPrefix(c) {
				t.Fatalf("non-prefix type %v under sequential policy", c)
			}
		}
	}
}
