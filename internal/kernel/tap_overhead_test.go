package kernel

import (
	"testing"
	"time"

	"repro/internal/rng"
)

// stepBaseline is the uninstrumented seed event loop, not a copy of
// Kernel.Step: it lacks the tap branch, the instrumentation watermark
// compare, and the counter, flush and trace mark on the no-progress path.
// TestTapOffOverhead measures Step with no tap, registry or tracer against
// it, so the gate pins the combined off-path cost of both hooks. Keep its
// simulation logic (rates, holding time, class race, fire, occupancy) in
// step with Step's.
func (k *Kernel) stepBaseline() error {
	k.rates = k.proc.Rates(k.rates[:0])
	var total float64
	for _, r := range k.rates {
		total += r
	}
	if total <= 0 {
		return ErrNoProgress
	}
	k.now += k.r.Exp(total)
	k.events++

	u := k.r.Float64() * total
	class := -1
	for i, r := range k.rates {
		if r <= 0 {
			continue
		}
		class = i
		u -= r
		if u < 0 {
			break
		}
	}
	if err := k.proc.Fire(class); err != nil {
		return err
	}
	k.occ.Observe(k.now, k.proc.Population())
	return nil
}

// timeSteps measures the wall time of iters kernel steps via step.
func timeSteps(b *birthDeath, k *Kernel, iters int, step func() error) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := step(); err != nil {
			panic(err)
		}
	}
	return time.Since(start)
}

// TestTapOffOverhead enforces the observer-off acceptance bound: with no
// tap attached, Kernel.Step must stay within 2% of the pre-tap event loop
// (stepBaseline). Both loops run interleaved several times and the minima
// are compared — minima are robust to scheduling noise; a small absolute
// slack absorbs timer granularity. Skipped in -short mode and under the
// race detector, whose instrumentation swamps the nanosecond scale;
// BenchmarkKernelStep* in internal/obs record the same pair in CI's
// BENCH_obs.json artifact.
func TestTapOffOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
	const (
		iters  = 400_000
		rounds = 9
	)
	mkKernel := func() (*birthDeath, *Kernel) {
		p := &birthDeath{lambda: 2, mu: 1, n: 100}
		return p, New(rng.New(1), p)
	}
	minStep, minBase := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < rounds; r++ {
		p, k := mkKernel()
		if d := timeSteps(p, k, iters, k.Step); d < minStep {
			minStep = d
		}
		p, k = mkKernel()
		if d := timeSteps(p, k, iters, k.stepBaseline); d < minBase {
			minBase = d
		}
	}
	// 2% relative bound plus 2ms absolute slack (~5ns/op at these iters)
	// for timer granularity on quiet runs.
	limit := minBase + minBase/50 + 2*time.Millisecond
	t.Logf("step (nil tap): %v, baseline: %v over %d iters (min of %d rounds)",
		minStep, minBase, iters, rounds)
	if minStep > limit {
		t.Errorf("observer-off Step overhead too high: %v vs baseline %v (limit %v)",
			minStep, minBase, limit)
	}
}
