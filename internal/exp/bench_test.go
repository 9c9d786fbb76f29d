package exp

import "testing"

// BenchmarkExperiments runs every registered experiment at quick scale,
// one sub-benchmark per ID. Every iteration uses seed 1, so each one does
// the same work.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range All() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(Config{Quick: true, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
