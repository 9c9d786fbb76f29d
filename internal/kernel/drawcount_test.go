package kernel_test

// This test sits in the external test package for the reason given in
// cumulative_bench_test.go: code added to package kernel's own test files
// shifts the hot loops the wall-clock overhead gates time.

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/rng"
)

// drawless is a two-class process whose Fire consumes no randomness.
type drawless struct{ n int }

func (p *drawless) Rates(buf []float64) []float64 { return append(buf, 2, float64(p.n)) }

func (p *drawless) Fire(class int) error {
	if class == 0 {
		p.n++
	} else {
		p.n--
	}
	return nil
}

func (p *drawless) Population() float64 { return float64(p.n) }

// TestKernelStepDrawCount pins Step's randomness budget exactly: one
// rng.Exp for the holding time and one Float64 for the class choice. With
// a process whose Fire draws nothing, the generator after one Step must
// stand where a same-seed reference stands after Exp(total) and Float64,
// so an added or dropped draw in Step fails here deterministically. Exp's
// ziggurat takes one word on its fast path and more on its slow paths;
// the first holding time at these seeds takes the fast path (1, 11,
// 12345), an accepted wedge (10), a rejected wedge (22) and the tail
// (711), as internal/rng's TestExpFirstDraw asserts.
func TestKernelStepDrawCount(t *testing.T) {
	for _, seed := range []uint64{1, 10, 11, 22, 711, 12345} {
		k := kernel.New(rng.New(seed), &drawless{n: 3})
		if err := k.Step(); err != nil {
			t.Fatal(err)
		}
		ref := rng.New(seed)
		ref.Exp(5) // drawless's total rate at n = 3
		ref.Float64()
		if got, want := k.RNG().Uint64(), ref.Uint64(); got != want {
			t.Errorf("seed %d: the draw after one Step is %#x, want the reference's next draw %#x", seed, got, want)
		}
	}
}
