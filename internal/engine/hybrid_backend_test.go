package engine

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/model"
	"repro/internal/pieceset"
)

// TestHybridBackendDeterministicAcrossWorkers pins the hybrid backend's
// half of the engine determinism contract: every replica draws only from
// its private stream (the exact kernel segments, the tau-leap Poisson
// counts; the fluid regime draws nothing), so per-replica records are
// byte-identical however the pool schedules them. Replicas start with one
// coordinate inside the leap band and the others above the fluid band, so
// each replica leaps until that coordinate clears the fluid band and then
// hands off to the ODE. Runs under -race in CI, which also exercises the shared
// hybrid trace track from many goroutines.
func TestHybridBackendDeterministicAcrossWorkers(t *testing.T) {
	p := model.Params{
		K: 2, Us: 1e5, Mu: 1, Gamma: math.Inf(1),
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1.5e5},
	}
	initial := map[pieceset.Set]int{
		pieceset.Empty:     80_000,
		pieceset.MustOf(1): 80_000,
		pieceset.MustOf(2): 40_000,
	}
	job := func(workers int) *Result {
		res, err := Run(context.Background(), Job{
			Name: "hybrid-determinism",
			Backend: &HybridBackend{
				Params:  p,
				Options: []hybrid.Option{hybrid.WithInitialPeers(initial)},
				Measure: func(ctx context.Context, rep int, h *hybrid.Swarm) (Sample, error) {
					if _, err := h.RunUntil(2, 0); err != nil {
						return nil, err
					}
					st := h.Stats()
					return Sample{
						"final_n":   float64(h.N()),
						"occupancy": h.MeanPeers(),
						"now":       h.Now(),
						"events":    float64(st.Events),
						"leaps":     float64(st.Leaps),
						"fluid":     float64(st.FluidSteps),
						"switches":  float64(st.Switches),
					}, nil
				},
			},
			Replicas: 6,
			Seed:     13,
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := job(1)
	if base.Mean("leaps") == 0 || base.Mean("fluid") == 0 {
		t.Fatalf("replicas leaped %v and took %v fluid steps on average; the determinism check needs both",
			base.Mean("leaps"), base.Mean("fluid"))
	}
	for _, workers := range []int{2, 8} {
		got := job(workers)
		for i := range base.Records {
			if !reflect.DeepEqual(base.Sample(i), got.Sample(i)) {
				t.Errorf("workers=%d replica %d diverged:\n  1: %v\n  %d: %v",
					workers, i, base.Sample(i), workers, got.Sample(i))
			}
		}
	}
}
