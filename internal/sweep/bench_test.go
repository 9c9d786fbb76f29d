package sweep

import (
	"context"
	"testing"
)

// The dense/adaptive pair backs the subsystem's headline claim: at equal
// boundary resolution (identical raster dimensions, crossings within one
// cell — TestAdaptiveMatchesDenseBoundary), the adaptive refiner evaluates
// ≥5× fewer cells (TestAdaptiveEvaluatesFewerCells enforces the ratio;
// the "cells/op" metric below records it run-over-run in BENCH.json).

func BenchmarkSweepDense(b *testing.B) {
	g := example1Grid(3)
	for i := 0; i < b.N; i++ {
		m, err := g.RunDense(context.Background(), &Runner{Evaluator: Theory{}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.Stats.Evaluated), "cells/op")
	}
}

func BenchmarkSweepAdaptive(b *testing.B) {
	g := example1Grid(3)
	for i := 0; i < b.N; i++ {
		m, err := g.Run(context.Background(), &Runner{Evaluator: Theory{}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.Stats.Evaluated), "cells/op")
	}
}
