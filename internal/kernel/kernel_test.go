package kernel

import (
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/telemetry"
)

// birthDeath is a minimal M/M/∞-like test process: arrivals at rate lambda,
// departures at rate mu per individual.
type birthDeath struct {
	lambda, mu float64
	n          int
	k          *Kernel
	fires      []int
}

func (p *birthDeath) Rates(buf []float64) []float64 {
	return append(buf, p.lambda, p.mu*float64(p.n))
}

func (p *birthDeath) Fire(class int) error {
	p.fires = append(p.fires, class)
	switch class {
	case 0:
		p.n++
	case 1:
		if p.n == 0 {
			return errors.New("death with no individuals")
		}
		p.n--
	}
	return nil
}

func (p *birthDeath) Population() float64 { return float64(p.n) }

func TestKernelDeterministicReplay(t *testing.T) {
	run := func() ([]int, float64) {
		p := &birthDeath{lambda: 2, mu: 1}
		k := New(rng.New(11), p)
		p.k = k
		for i := 0; i < 5000; i++ {
			if err := k.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return p.fires, k.Now()
	}
	fa, ta := run()
	fb, tb := run()
	if ta != tb {
		t.Fatalf("clocks diverge: %v vs %v", ta, tb)
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("event %d differs across identical replays", i)
		}
	}
}

func TestKernelEquilibrium(t *testing.T) {
	// M/M/∞ with λ=5, µ=1 has stationary E[N] = 5.
	p := &birthDeath{lambda: 5, mu: 1}
	k := New(rng.New(7), p)
	p.k = k
	for k.Now() < 50 { // burn-in
		if err := k.Step(); err != nil {
			t.Fatal(err)
		}
	}
	k.ResetOccupancy()
	for k.Now() < 3000 {
		if err := k.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := k.MeanPopulation(); math.Abs(got-5) > 0.5 {
		t.Errorf("E[N] = %v, want ≈ 5", got)
	}
	if k.Events() == 0 {
		t.Error("no events counted")
	}
}

func TestKernelMeanHoldingTime(t *testing.T) {
	// At n=0 only arrivals race: total rate λ=4, mean holding time 1/4.
	var total float64
	const trials = 20000
	for i := 0; i < trials; i++ {
		p := &birthDeath{lambda: 4, mu: 1}
		k := New(rng.New(uint64(i)+1), p)
		if err := k.Step(); err != nil {
			t.Fatal(err)
		}
		total += k.Now()
	}
	if mean := total / trials; math.Abs(mean-0.25) > 0.01 {
		t.Errorf("mean holding time = %v, want 0.25", mean)
	}
}

func TestKernelNoProgress(t *testing.T) {
	p := &birthDeath{lambda: 0, mu: 1} // n=0: total rate zero
	k := New(rng.New(1), p)
	if err := k.Step(); !errors.Is(err, ErrNoProgress) {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
}

func TestKernelFireErrorSurfaces(t *testing.T) {
	errProc := processFunc{
		rates: func(buf []float64) []float64 { return append(buf, 1) },
		fire:  func(int) error { return errors.New("boom") },
	}
	k := New(rng.New(1), errProc)
	if err := k.Step(); err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
}

type processFunc struct {
	rates func([]float64) []float64
	fire  func(int) error
}

func (p processFunc) Rates(buf []float64) []float64 { return p.rates(buf) }
func (p processFunc) Fire(class int) error          { return p.fire(class) }
func (p processFunc) Population() float64           { return 0 }

// TestKernelSkipsZeroRateClasses: a zero-rate class between positive ones
// must never fire, and round-off fallback lands on a positive-rate class.
func TestKernelSkipsZeroRateClasses(t *testing.T) {
	fired := map[int]int{}
	proc := processFunc{
		rates: func(buf []float64) []float64 { return append(buf, 1, 0, 2, 0) },
		fire:  func(class int) error { fired[class]++; return nil },
	}
	k := New(rng.New(3), proc)
	for i := 0; i < 5000; i++ {
		if err := k.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if fired[1] > 0 || fired[3] > 0 {
		t.Fatalf("zero-rate class fired: %v", fired)
	}
	ratio := float64(fired[2]) / float64(fired[0])
	if math.Abs(ratio-2) > 0.3 {
		t.Errorf("class ratio = %v, want ≈ 2", ratio)
	}
}

// tapRecorder captures the post-event stream for tap tests.
type tapRecorder struct {
	ts      []float64
	classes []int
	pops    []float64
	stopAt  float64 // halt once population reaches this (0 = never)
}

func (r *tapRecorder) OnEvent(t float64, class int, pop float64) {
	r.ts = append(r.ts, t)
	r.classes = append(r.classes, class)
	r.pops = append(r.pops, pop)
}

func (r *tapRecorder) Halted() bool {
	return r.stopAt > 0 && len(r.pops) > 0 && r.pops[len(r.pops)-1] >= r.stopAt
}

func TestKernelTapSeesEveryEvent(t *testing.T) {
	p := &birthDeath{lambda: 3, mu: 1}
	k := New(rng.New(5), p)
	rec := &tapRecorder{}
	k.SetTap(rec)
	if k.Tap() != rec {
		t.Fatal("Tap accessor does not return the attached tap")
	}
	const steps = 2000
	for i := 0; i < steps; i++ {
		if err := k.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.ts) != steps {
		t.Fatalf("tap saw %d events, want %d", len(rec.ts), steps)
	}
	for i := range rec.ts {
		if i > 0 && rec.ts[i] <= rec.ts[i-1] {
			t.Fatalf("tap times not increasing at %d", i)
		}
		if rec.classes[i] != 0 && rec.classes[i] != 1 {
			t.Fatalf("tap class out of range: %d", rec.classes[i])
		}
	}
	// The tap's view of the final population matches the process.
	if got := rec.pops[len(rec.pops)-1]; got != p.Population() {
		t.Errorf("final tap population %v != process %v", got, p.Population())
	}
	// Detaching stops delivery.
	k.SetTap(nil)
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	if len(rec.ts) != steps {
		t.Error("detached tap still receives events")
	}
}

// TestKernelTapDrawsNothing: attaching a tap must not change which
// realization a seed produces.
func TestKernelTapDrawsNothing(t *testing.T) {
	run := func(tap Tap) (float64, uint64) {
		p := &birthDeath{lambda: 2, mu: 1}
		k := New(rng.New(17), p)
		k.SetTap(tap)
		for i := 0; i < 3000; i++ {
			if err := k.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return k.Now(), k.Events()
	}
	plainT, plainE := run(nil)
	tapT, tapE := run(&tapRecorder{})
	if plainT != tapT || plainE != tapE {
		t.Errorf("tap changed the realization: (%v,%v) vs (%v,%v)", plainT, plainE, tapT, tapE)
	}
}

func TestKernelTapHalts(t *testing.T) {
	p := &birthDeath{lambda: 5, mu: 0.1}
	k := New(rng.New(9), p)
	rec := &tapRecorder{stopAt: 20}
	k.SetTap(rec)
	var err error
	for i := 0; i < 100000; i++ {
		if err = k.Step(); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("err = %v, want ErrHalted", err)
	}
	if p.n < 20 {
		t.Errorf("halted before the trigger: n = %d", p.n)
	}
	// The triggering event was fully committed and observed.
	if got := rec.pops[len(rec.pops)-1]; got != float64(p.n) {
		t.Errorf("halt event not observed: %v != %v", got, p.n)
	}
}

// TestKernelRunUntil covers the one run loop every kernel-backed simulator
// delegates to: each stop reason, the disabled population limit, error
// propagation, and an exact event counter at return.
func TestKernelRunUntil(t *testing.T) {
	run := func(p *birthDeath, tap Tap, maxTime float64, maxPeers int) (*Kernel, StopReason, error) {
		k := New(rng.New(9), p)
		k.SetTap(tap)
		reason, err := k.RunUntil(maxTime, maxPeers)
		return k, reason, err
	}

	p := &birthDeath{lambda: 2, mu: 1}
	k, reason, err := run(p, nil, 50, 0)
	if err != nil || reason != StopTime || k.Now() < 50 {
		t.Errorf("time limit: reason=%v err=%v now=%v", reason, err, k.Now())
	}

	// Births come one at a time, so the cap stops the run exactly at it.
	p = &birthDeath{lambda: 5, mu: 0.1}
	if _, reason, err = run(p, nil, 100, 30); err != nil || reason != StopPeers || p.n != 30 {
		t.Errorf("peer limit: reason=%v err=%v n=%d", reason, err, p.n)
	}
	for _, off := range []int{0, -1} {
		p = &birthDeath{lambda: 5, mu: 0.1}
		if _, reason, err = run(p, nil, 100, off); err != nil || reason != StopTime || p.n <= 30 {
			t.Errorf("maxPeers=%d must disable the limit: reason=%v err=%v n=%d", off, reason, err, p.n)
		}
	}

	p = &birthDeath{lambda: 5, mu: 0.1}
	if _, reason, err = run(p, &tapRecorder{stopAt: 20}, 100, 0); err != nil || reason != StopObserver || p.n < 20 {
		t.Errorf("observer halt: reason=%v err=%v n=%d", reason, err, p.n)
	}
	if reason.String() != "observer-halt" || StopReason(9).String() != "stop(9)" {
		t.Errorf("stop reason names: %q, %q", reason.String(), StopReason(9).String())
	}

	if _, _, err = run(&birthDeath{lambda: 0, mu: 1}, nil, 10, 0); !errors.Is(err, ErrNoProgress) {
		t.Errorf("err = %v, want ErrNoProgress", err)
	}

	// The open instrumentation batch is flushed on return.
	defer telemetry.SetDefault(nil)
	reg := telemetry.New()
	telemetry.SetDefault(reg)
	k, _, err = run(&birthDeath{lambda: 2, mu: 1, n: 100}, nil, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue(telemetry.KernelEvents); got != k.Events() || k.Events()%eventBatch == 0 {
		t.Errorf("kernel_events_total = %d after a run of %d events", got, k.Events())
	}
}

// TestMeanPopulationClosedForm property-tests the kernel's occupancy
// estimator: for a birth–death path, the time average reconstructed in
// closed form from the tap's (time, population) step function must match
// Kernel.MeanPopulation exactly (same piecewise-constant integral).
func TestMeanPopulationClosedForm(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		p := &birthDeath{lambda: 4, mu: 1, n: int(seed % 7)}
		k := New(rng.New(seed), p)
		rec := &tapRecorder{}
		k.SetTap(rec)
		// Initial level: population at time zero, before any event.
		prevT, prevV := 0.0, p.Population()
		for i := 0; i < 500; i++ {
			if err := k.Step(); err != nil {
				t.Fatal(err)
			}
		}
		var integral float64
		for i := range rec.ts {
			integral += prevV * (rec.ts[i] - prevT)
			prevT, prevV = rec.ts[i], rec.pops[i]
		}
		want := integral / prevT
		if got := k.MeanPopulation(); math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("seed %d: MeanPopulation = %v, closed form = %v", seed, got, want)
		}
	}
}

func TestFlashCrowdProfile(t *testing.T) {
	f := FlashCrowd{Start: 10, Rise: 5, Hold: 20, Fall: 5, Peak: 6}
	cases := []struct{ t, want float64 }{
		{0, 1}, {10, 1}, {12.5, 3.5}, {15, 6}, {30, 6}, {37.5, 3.5}, {40, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := f.At(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if f.Max() != 6 {
		t.Errorf("Max = %v", f.Max())
	}
	if (FlashCrowd{Peak: 0.5}).Max() != 1 {
		t.Error("Max must bound the off-event multiplier 1")
	}
}

func TestScenarioValidateAndHelpers(t *testing.T) {
	if err := (Scenario{}).Validate(); err != nil {
		t.Errorf("zero scenario invalid: %v", err)
	}
	if (Scenario{}).Active() {
		t.Error("zero scenario active")
	}
	s := Scenario{Arrival: FlashCrowd{Start: 1, Rise: 1, Hold: 1, Fall: 1, Peak: 4}, Churn: 0.5}
	if !s.Active() || s.ArrivalBound() != 4 || s.ArrivalAt(0) != 1 {
		t.Error("scenario helpers wrong")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
	if err := (Scenario{Churn: -1}).Validate(); err == nil {
		t.Error("negative churn accepted")
	}
	if err := (Scenario{Churn: math.Inf(1)}).Validate(); err == nil {
		t.Error("infinite churn accepted")
	}
	if err := (Scenario{Arrival: FlashCrowd{Peak: math.Inf(1)}}).Validate(); err == nil {
		t.Error("unbounded profile accepted")
	}
}

// TestScenarioThinningLaw: the thinned arrival stream through a kernel
// process must reproduce the profile's integrated intensity.
func TestScenarioThinningLaw(t *testing.T) {
	sc := Scenario{Arrival: FlashCrowd{Start: 100, Rise: 10, Hold: 30, Fall: 10, Peak: 5}}
	const base = 2.0
	accepted := 0
	var k *Kernel
	proc := processFunc{
		rates: func(buf []float64) []float64 { return append(buf, base*sc.ArrivalBound()) },
		fire: func(int) error {
			if sc.AcceptArrival(k.RNG(), k.Now()) {
				accepted++
			}
			return nil
		},
	}
	k = New(rng.New(21), proc)
	for k.Now() < 200 {
		if err := k.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// ∫λ(t)dt = 2·(200 + (5−1)·(10/2 + 30 + 10/2)) = 2·360 = 720.
	want := 720.0
	if got := float64(accepted); math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Errorf("accepted arrivals = %v, want ≈ %v", got, want)
	}
}
