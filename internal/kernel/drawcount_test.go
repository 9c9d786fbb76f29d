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
// uniform for the holding time and one for the class choice. With a
// process whose Fire draws nothing, the generator after one Step must
// stand at the third draw of a same-seed stream, so an added or dropped
// draw in Step fails here deterministically.
func TestKernelStepDrawCount(t *testing.T) {
	for _, seed := range []uint64{1, 11, 12345} {
		k := kernel.New(rng.New(seed), &drawless{n: 3})
		if err := k.Step(); err != nil {
			t.Fatal(err)
		}
		ref := rng.New(seed)
		ref.Uint64()
		ref.Uint64()
		if got, want := k.RNG().Uint64(), ref.Uint64(); got != want {
			t.Errorf("seed %d: the draw after one Step is %#x, want the stream's third draw %#x", seed, got, want)
		}
	}
}
