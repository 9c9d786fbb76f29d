package kernel_test

// BenchmarkSelectCumulative sits in the external test package on purpose:
// code added to package kernel's own test files shifts the addresses of
// the hot loops that the wall-clock overhead gates (TestTapOffOverhead and
// friends) time, and at a 2% bound a cache-line shift is visible. Code here
// is linked after package kernel, so that layout stays as it was.

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/rng"
)

// BenchmarkSelectCumulative rebuilds a cumulative array and binary-searches
// it on every draw: the search is O(log n), but counts change every event,
// so each draw also pays an O(n) rebuild. With BenchmarkSelectLinear it is
// the event-sampling ablation of DESIGN.md §6.
func BenchmarkSelectCumulative(b *testing.B) {
	for _, n := range kernel.BenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			vals, total := kernel.FillCounts(n, 42)
			r := rng.New(7)
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				target := int64(r.Intn(int(total)))
				cum := make([]int64, n)
				var run int64
				for j, v := range vals {
					run += v
					cum[j] = run
				}
				lo, hi := 0, n-1
				for lo < hi {
					mid := (lo + hi) / 2
					if cum[mid] <= target {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				sink += lo
			}
			_ = sink
		})
	}
}
