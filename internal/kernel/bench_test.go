package kernel

// Micro-benchmarks for the kernel's weighted samplers: the O(n) linear
// scan the simulators used before (seed baseline) against the O(log n)
// Fenwick-backed Counts sampler, across occupied-slot counts from 1e2 to
// 1e6; BenchmarkSelectCumulative (cumulative_bench_test.go) adds a
// cumulative array rebuilt per draw on the same slots. CI runs every
// benchmark in the module in one short -benchtime pass and uploads the
// JSON output as BENCH.json; EXPERIMENTS.md records a summary.

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

var benchSizes = []int{100, 1_000, 10_000, 100_000, 1_000_000}

// fillCounts populates n slots with counts in [1, 8].
func fillCounts(n int, seed uint64) ([]int64, int64) {
	r := rng.New(seed)
	vals := make([]int64, n)
	var total int64
	for i := range vals {
		vals[i] = int64(1 + r.Intn(8))
		total += vals[i]
	}
	return vals, total
}

// BenchmarkSelectLinear is the seed baseline: pickPeerType's linear
// cumulative scan over occupied types.
func BenchmarkSelectLinear(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			vals, total := fillCounts(n, 42)
			r := rng.New(7)
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				target := int64(r.Intn(int(total)))
				for j, v := range vals {
					target -= v
					if target < 0 {
						sink += j
						break
					}
				}
			}
			_ = sink
		})
	}
}

// BenchmarkSelectFenwick is the kernel sampler on the same populations.
func BenchmarkSelectFenwick(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			vals, _ := fillCounts(n, 42)
			var c Counts[int]
			for i, v := range vals {
				c.Add(i, int(v))
			}
			r := rng.New(7)
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				k, _ := c.Pick(r)
				sink += k
			}
			_ = sink
		})
	}
}

// BenchmarkSelectFenwickChurn mixes sampling with count updates in a 1:2
// ratio, the simulators' actual access pattern (every transfer moves a
// peer between two type slots).
func BenchmarkSelectFenwickChurn(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			vals, _ := fillCounts(n, 42)
			var c Counts[int]
			for i, v := range vals {
				c.Add(i, int(v))
			}
			r := rng.New(7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k, _ := c.Pick(r)
				c.Add(k, 1)
				c.Add(k, -1)
			}
		})
	}
}

// BenchmarkWeightedPick measures rate-weighted branch selection.
func BenchmarkWeightedPick(b *testing.B) {
	for _, n := range []int{100, 10_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(3)
			var w Weighted[int]
			for i := 0; i < n; i++ {
				w.Set(i, 1+float64(r.Intn(8)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				k, _ := w.Pick(r)
				sink += k
			}
			_ = sink
		})
	}
}

// BenchmarkKernelStep measures the kernel's fixed per-event overhead on a
// trivial two-class process.
func BenchmarkKernelStep(b *testing.B) {
	p := &birthDeath{lambda: 2, mu: 1, n: 100}
	k := New(rng.New(1), p)
	p.fires = nil
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Step(); err != nil {
			b.Fatal(err)
		}
		p.fires = p.fires[:0]
	}
}
