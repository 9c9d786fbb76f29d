package codedsim

import (
	"testing"

	"repro/internal/gf"
	"repro/internal/stability"
)

// hotSwarm builds the stationary hot-path workload of the coded simulator:
// peers arrive already holding the full subspace at rate n and depart at
// unit seeding rate γ = 1 (full-subspace arrivals are legal when γ < ∞),
// so the population self-stabilizes near n with exactly one live coded
// group. Every contact draws a random vector from the source's span and
// runs the containment check against the target — always non-innovative —
// which is precisely the steady-state arithmetic path: ContainsBuf on the
// reusable scratch row, no interning, no group churn.
func hotSwarm(tb testing.TB, n, warmupEvents int) *Swarm {
	tb.Helper()
	f, err := gf.New(4)
	if err != nil {
		tb.Fatal(err)
	}
	p := stability.CodedParams{
		K:     4,
		Field: f,
		Us:    1,
		Mu:    1,
		Gamma: 1,
		Arrivals: []stability.CodedArrival{
			{V: gf.FullSubspace(f, 4), Rate: float64(n)},
		},
	}
	s, err := New(p, WithSeed(7))
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

// TestStepAllocsSteadyState gates the coded per-event path at zero heap
// allocations once the group table is warm: interned group IDs mean no
// per-event key strings, and the vector scratch buffers absorb the GF
// arithmetic. Skipped under -race, whose instrumentation allocates on its
// own.
func TestStepAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate needs a non-race build")
	}
	s := hotSwarm(t, 2000, 60_000)
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

// innovativeSwarm builds the stationary innovative-path workload on
// perfbench's coded point: K=3, GF(2), γ=2, empty arrivals at λ0 = 250,
// U_s = 1.75·λ0, warmed to t = 20. Every transfer to a peer that lacks the
// piece extends its subspace; with a few hundred peers every one of
// GF(2)^3's 16 subspaces stays occupied, so each extension resolves to a
// live group through the scratch key and nothing is minted.
func innovativeSwarm(tb testing.TB) *Swarm {
	tb.Helper()
	f := gf.MustNew(2)
	const lambda0 = 250.0
	p := stability.CodedParams{
		K: 3, Field: f, Us: 1.75 * lambda0, Mu: 1, Gamma: 2,
		Arrivals: []stability.CodedArrival{{V: gf.ZeroSubspace(f, 3), Rate: lambda0}},
	}
	s, err := New(p, WithSeed(1))
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.RunUntil(20, 1<<20); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestInnovativeStepAllocs gates the innovative path at zero allocations
// on the innovativeSwarm fixture.
func TestInnovativeStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate needs a non-race build")
	}
	s := innovativeSwarm(t)
	before := s.Stats().Uploads
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 50; i++ {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if s.Stats().Uploads == before {
		t.Fatal("fixture made no innovative transfer")
	}
	if allocs != 0 {
		t.Errorf("innovative Step allocates %v allocs per 50 events, want 0", allocs)
	}
}

// BenchmarkHotPathStep measures steady-state events/sec on the coded
// simulator; the workload is stationary so b.N does not drift the
// population.
func BenchmarkHotPathStep(b *testing.B) {
	n := 100_000
	s := hotSwarm(b, n, 15*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkInnovativeStep measures the coded simulator's innovative path
// (the scratch extension and its key lookup) on the innovativeSwarm
// fixture, whose population is stationary near 1.3e3, so ns/op does not
// depend on b.N. BenchmarkHotPathStep never takes that path, because its
// arrivals already hold the full subspace.
func BenchmarkInnovativeStep(b *testing.B) {
	s := innovativeSwarm(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
