package peersim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/pieceset"
)

// hotParams is the steady-state workload of the hot-path gate and
// benchmarks: γ = ∞ so completions depart instantly, and unit-rate churn
// balances the λ_total = n arrival stream, so the population is stationary
// around n and every event class — arrivals, seed and peer contacts,
// transfers, churn departures — stays exercised.
func hotParams(n int) (model.Params, kernel.Scenario) {
	lam := map[pieceset.Set]float64{pieceset.Empty: 0.4 * float64(n)}
	for i := 1; i <= 10; i++ {
		lam[pieceset.MustOf(i)] = 0.06 * float64(n)
	}
	p := model.Params{K: 10, Us: 1, Mu: 1, Gamma: math.Inf(1), Lambda: lam}
	return p, kernel.Scenario{Churn: 1}
}

// hotSwarm builds the workload and advances it to quasi-stationarity: the
// population has relaxed to its equilibrium near n and every internal
// buffer (peer arrays, kernel scratch) has grown to its working size.
func hotSwarm(tb testing.TB, n int, warmupEvents int) *Swarm {
	tb.Helper()
	p, sc := hotParams(n)
	s, err := New(p, WithSeed(7), WithScenario(sc))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < warmupEvents; i++ {
		if err := s.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	if s.N() < n/2 {
		tb.Fatalf("warmup did not reach steady state: N = %d, want ≈ %d", s.N(), n)
	}
	return s
}

// TestStepAllocsSteadyState is the allocation gate of the per-event path:
// once the swarm is at steady state, Step must not touch the heap at all —
// arrivals reuse array capacity and the sojourn tracker keeps no per-peer
// state, transfers run on the flat piece-set array, and departures
// swap-delete. Skipped under -race, whose instrumentation inserts
// allocations of its own.
func TestStepAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate needs a non-race build")
	}
	s := hotSwarm(t, 2000, 80_000)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 50; i++ {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Step allocates %v allocs per 50 events, want 0", allocs)
	}
}

// BenchmarkHotPathStep measures steady-state events/sec at the ROADMAP's
// target populations. The workload is stationary, so b.N does not drift
// the population and runs are comparable across builds.
func BenchmarkHotPathStep(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := hotSwarm(b, n, 15*n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
