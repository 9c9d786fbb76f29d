package borderline

import (
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
)

func TestNewValidation(t *testing.T) {
	if _, err := NewFromRNG(1, 1, rng.New(1)); !errors.Is(err, ErrBadParams) {
		t.Error("K=1 accepted")
	}
	if _, err := NewFromRNG(3, 0, rng.New(1)); !errors.Is(err, ErrBadParams) {
		t.Error("λ=0 accepted")
	}
	if _, err := NewFromRNG(3, 1, rng.New(1)); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestSetState(t *testing.T) {
	c, _ := NewFromRNG(3, 1, rng.New(1))
	if err := c.SetState(5, 2); err != nil {
		t.Fatal(err)
	}
	if n, j := c.State(); n != 5 || j != 2 {
		t.Errorf("state = (%d,%d)", n, j)
	}
	for _, bad := range [][2]int{{-1, 1}, {0, 1}, {3, 0}, {3, 3}} {
		if err := c.SetState(bad[0], bad[1]); !errors.Is(err, ErrBadParams) {
			t.Errorf("SetState(%v) accepted", bad)
		}
	}
}

func TestFirstArrival(t *testing.T) {
	c, _ := NewFromRNG(4, 2, rng.New(7))
	c.Step()
	if n, j := c.State(); n != 1 || j != 1 {
		t.Errorf("after first arrival: (%d,%d), want (1,1)", n, j)
	}
	if c.Now() <= 0 {
		t.Error("time did not advance")
	}
}

// TestEmpiricalMeanZ verifies the paper's E[Z] = K−1 identity, the crux of
// the zero-drift (null recurrence) argument.
func TestEmpiricalMeanZ(t *testing.T) {
	for _, k := range []int{2, 3, 5, 8} {
		got, err := SampleMeanZ(k, 200000, rng.New(uint64(k)))
		if err != nil {
			t.Fatal(err)
		}
		want := float64(k - 1)
		if math.Abs(got-want) > 0.05*want+0.02 {
			t.Errorf("K=%d: E[Z] = %v, want %v", k, got, want)
		}
	}
	if _, err := SampleMeanZ(1, 10, rng.New(1)); !errors.Is(err, ErrBadParams) {
		t.Error("K=1 accepted")
	}
	if _, err := SampleMeanZ(3, 0, rng.New(1)); !errors.Is(err, ErrBadParams) {
		t.Error("zero trials accepted")
	}
}

// TestTopLayerZeroDrift: starting from a big top-layer state, the average
// change in N per transition is ≈ 0 (the walk is driftless).
func TestTopLayerZeroDrift(t *testing.T) {
	const k, start = 3, 100000
	c, err := NewFromRNG(k, 1, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetState(start, k-1); err != nil {
		t.Fatal(err)
	}
	const steps = 200000
	c.RunTransitions(steps)
	n, j := c.State()
	if j != k-1 {
		t.Fatalf("left the top layer to (%d,%d)", n, j)
	}
	driftPerStep := float64(n-start) / steps
	if math.Abs(driftPerStep) > 0.02 {
		t.Errorf("drift per transition = %v, want ≈ 0", driftPerStep)
	}
}

func TestInvariants(t *testing.T) {
	c, err := NewFromRNG(4, 1.5, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	prevTime := 0.0
	for i := 0; i < 50000; i++ {
		c.Step()
		n, j := c.State()
		if n < 0 {
			t.Fatal("negative population")
		}
		if n == 0 && j != 0 {
			t.Fatalf("empty state with j = %d", j)
		}
		if n > 0 && (j < 1 || j > 3) {
			t.Fatalf("invalid layer %d", j)
		}
		if c.Now() <= prevTime {
			t.Fatal("time not strictly increasing")
		}
		prevTime = c.Now()
	}
	st := c.Stats()
	if st.Transitions != 50000 {
		t.Errorf("transitions = %d", st.Transitions)
	}
	if st.MissingPieceAr == 0 || st.LayerClimbs == 0 {
		t.Errorf("expected all event kinds: %+v", st)
	}
}

// TestMeanZWithinChain: the per-arrival departures recorded by the chain
// should also average close to K−1 when the club stays large.
func TestMeanZWithinChain(t *testing.T) {
	const k = 3
	c, err := NewFromRNG(k, 1, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetState(1000000, k-1); err != nil {
		t.Fatal(err)
	}
	c.RunTransitions(300000)
	st := c.Stats()
	if st.MissingPieceAr == 0 {
		t.Fatal("no missing-piece arrivals")
	}
	meanZ := float64(st.SumZ) / float64(st.MissingPieceAr)
	if math.Abs(meanZ-(k-1)) > 0.05 {
		t.Errorf("in-chain E[Z] = %v, want %d", meanZ, k-1)
	}
}

// TestMeasureReturnTimes: the walk does not mean-revert. Null-recurrent
// excursions of the top layer from a large state are long, so most fail to
// halve the population within a step cap.
func TestMeasureReturnTimes(t *testing.T) {
	// Halving a 1000-peer zero-drift walk needs ≈ (n/2)² ≈ 250k steps of
	// unit variance; with batch departures variance is larger but most of
	// 2000-step excursions must still time out.
	const k, excursions, excStart, maxSteps = 3, 50, 1000, 2000
	capped := 0
	for e := 0; e < excursions; e++ {
		c, err := NewFromRNG(k, 1, rng.New(3+uint64(e)*7919))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetState(excStart, k-1); err != nil {
			t.Fatal(err)
		}
		returned := false
		for step := 0; step < maxSteps && !returned; step++ {
			c.Step()
			n, _ := c.State()
			returned = n <= excStart/2
		}
		if !returned {
			capped++
		}
	}
	if capped < 35 {
		t.Errorf("only %d/%d excursions capped; walk looks mean-reverting", capped, excursions)
	}
}

// BenchmarkBorderlineTopLayer measures raw transition throughput of the
// µ=∞ embedded chain on its top layer (Figure 3).
func BenchmarkBorderlineTopLayer(b *testing.B) {
	c, err := NewFromRNG(3, 1, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	if err := c.SetState(1_000_000, 2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}
