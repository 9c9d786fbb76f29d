package hybrid

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/pieceset"
	"repro/internal/sim"
)

// benchPoint is a stable γ = ∞ point scaled to equilibrium population ≈ n,
// started at a balanced interior state so the benchmark measures
// steady-state advance rate (the regime the hybrid exists for), not the
// fill-up transient.
func benchPoint(n int) (model.Params, map[pieceset.Set]int) {
	lambda0 := float64(n) / 3
	p := model.Params{
		K: 2, Us: lambda0, Mu: 1, Gamma: math.Inf(1),
		Lambda: map[pieceset.Set]float64{pieceset.Empty: lambda0},
	}
	third := n / 3
	initial := map[pieceset.Set]int{
		pieceset.Empty:     third,
		pieceset.MustOf(1): third,
		pieceset.MustOf(2): third,
	}
	return p, initial
}

// BenchmarkHybridSpeedup measures wall-clock per simulated time unit for
// the exact kernel and the hybrid backend on the same stable point, and
// reports their ratio as the "speedup" metric — the number behind the
// README Performance row and CI's BENCH.json artifact. The exact
// leg runs a shorter horizon at large N (its cost grows linearly with the
// event rate ≈ (λ0 + µ·n)·t); rates are normalized per simulated time.
func BenchmarkHybridSpeedup(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			p, initial := benchPoint(n)
			exactHorizon := 2e5 / float64(n) // ≈ constant exact event budget
			const hybridHorizon = 4.0

			var exactNs, hybridNs float64
			b.Run("exact", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sw, err := sim.New(p, sim.WithSeed(uint64(i+1)), sim.WithInitialPeers(initial))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := sw.RunUntil(exactHorizon, 0); err != nil {
						b.Fatal(err)
					}
				}
				exactNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N) / exactHorizon
				b.ReportMetric(exactNs, "ns/simtime")
			})
			b.Run("hybrid", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					h, err := New(p, WithSeed(uint64(i+1)), WithInitialPeers(initial))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := h.RunUntil(hybridHorizon, 0); err != nil {
						b.Fatal(err)
					}
				}
				hybridNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N) / hybridHorizon
				b.ReportMetric(hybridNs, "ns/simtime")
				// The sub-benchmarks run in order, so the exact leg's rate is
				// already measured; a parent-level metric would be dropped
				// (parents with sub-benchmarks emit no result line).
				if exactNs > 0 && hybridNs > 0 {
					b.ReportMetric(exactNs/hybridNs, "speedup")
				}
			})
		})
	}
}
