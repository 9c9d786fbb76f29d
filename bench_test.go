package repro

// One benchmark per reproduction experiment (E1–E12, quick scale), plus
// micro-benchmarks for the hot paths and the ablation benchmarks called out
// in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/borderline"
	"repro/internal/codedsim"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/gf"
	"repro/internal/lyapunov"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/pieceset"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stability"
)

// benchExperiment runs one registered experiment per iteration at quick
// scale.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(exp.Config{Quick: true, Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1Example1(b *testing.B)            { benchExperiment(b, "E1") }
func BenchmarkE2Example2(b *testing.B)            { benchExperiment(b, "E2") }
func BenchmarkE3Example3(b *testing.B)            { benchExperiment(b, "E3") }
func BenchmarkE4OneMorePiece(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5MissingPiece(b *testing.B)        { benchExperiment(b, "E5") }
func BenchmarkE6PolicyInsensitivity(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE7NetworkCoding(b *testing.B)       { benchExperiment(b, "E7") }
func BenchmarkE8Borderline(b *testing.B)          { benchExperiment(b, "E8") }
func BenchmarkE9FastRecovery(b *testing.B)        { benchExperiment(b, "E9") }
func BenchmarkE10Validation(b *testing.B)         { benchExperiment(b, "E10") }
func BenchmarkE11Lyapunov(b *testing.B)           { benchExperiment(b, "E11") }
func BenchmarkE12DeltaEquivalence(b *testing.B)   { benchExperiment(b, "E12") }

// --- micro-benchmarks -----------------------------------------------------

func benchParams(k int) model.Params {
	return model.Params{
		K: k, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
}

// BenchmarkSwarmStep measures raw event throughput of the type-count
// simulator at a steady population of ~1000 peers.
func BenchmarkSwarmStep(b *testing.B) {
	p := benchParams(4)
	club := pieceset.Full(4).Without(1)
	s, err := sim.New(p, sim.WithSeed(1),
		sim.WithInitialPeers(map[pieceset.Set]int{club: 1000}))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodedStep measures event throughput of the coded simulator.
func BenchmarkCodedStep(b *testing.B) {
	f := gf.MustNew(4)
	p := stability.CodedParams{
		K: 4, Field: f, Us: 1, Mu: 1, Gamma: 2,
		Arrivals: []stability.CodedArrival{{V: gf.ZeroSubspace(f, 4), Rate: 1}},
	}
	s, err := codedsim.New(p, codedsim.WithSeed(1),
		codedsim.WithInitialPeers(gf.ZeroSubspace(f, 4), 500))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneratorTransitions measures generator-row enumeration, the
// exact solver's inner loop.
func BenchmarkGeneratorTransitions(b *testing.B) {
	p := benchParams(4)
	x := model.NewState(4)
	for i := range x {
		x[i] = i % 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Transitions(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStationarySolve measures the full truncated solve for K=1.
func BenchmarkStationarySolve(b *testing.B) {
	p := benchParams(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := markov.Build(p, 40)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Stationary(0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLyapunovDrift measures one exact drift evaluation QW(x).
func BenchmarkLyapunovDrift(b *testing.B) {
	p := benchParams(3)
	c, err := lyapunov.DefaultConstants(p)
	if err != nil {
		b.Fatal(err)
	}
	e, err := lyapunov.New(p, c)
	if err != nil {
		b.Fatal(err)
	}
	x := model.NewState(3)
	x[int(pieceset.Full(3).Without(1))] = 1000
	x[int(pieceset.Full(3))] = 3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Drift(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGFMul measures field multiplication (table lookups).
func BenchmarkGFMul(b *testing.B) {
	f := gf.MustNew(64)
	b.ReportAllocs()
	acc := 1
	for i := 0; i < b.N; i++ {
		acc = f.Mul(acc, 37)
		if acc == 0 {
			acc = 1
		}
	}
	_ = acc
}

// BenchmarkSubspaceAdd measures subspace extension with RREF.
func BenchmarkSubspaceAdd(b *testing.B) {
	f := gf.MustNew(8)
	r := rng.New(1)
	const k = 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := gf.ZeroSubspace(f, k)
		for j := 0; j < k; j++ {
			v := make(gf.Vec, k)
			for t := range v {
				v[t] = r.Intn(8)
			}
			var err error
			s, err = s.Add(v)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkClassify measures the Theorem 1 classification.
func BenchmarkClassify(b *testing.B) {
	p := benchParams(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := stability.Classify(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks (DESIGN.md §6) ------------------------------------

// perPeerSwarm is a deliberately naive reference simulator that stores one
// record per peer instead of type counts; the ablation quantifies what the
// type-count representation buys.
type perPeerSwarm struct {
	p     model.Params
	r     *rng.RNG
	peers []pieceset.Set
	now   float64
}

func (s *perPeerSwarm) step() {
	full := pieceset.Full(s.p.K)
	n := len(s.peers)
	lambda := s.p.LambdaTotal()
	seed := 0.0
	if n > 0 {
		seed = s.p.Us
	}
	peer := s.p.Mu * float64(n)
	dep := 0.0
	seeds := 0
	for _, c := range s.peers {
		if c == full {
			seeds++
		}
	}
	dep = s.p.Gamma * float64(seeds)
	total := lambda + seed + peer + dep
	s.now += s.r.Exp(total)
	u := s.r.Float64() * total
	switch {
	case u < lambda:
		s.peers = append(s.peers, pieceset.Empty)
	case u < lambda+seed:
		i := s.r.Intn(n)
		useful := s.peers[i].Complement(s.p.K)
		if !useful.IsEmpty() {
			s.peers[i] = s.peers[i].With(useful.NthPiece(s.r.Intn(useful.Size())))
		}
	case u < lambda+seed+peer:
		up, tg := s.r.Intn(n), s.r.Intn(n)
		useful := s.peers[up].Minus(s.peers[tg])
		if !useful.IsEmpty() {
			s.peers[tg] = s.peers[tg].With(useful.NthPiece(s.r.Intn(useful.Size())))
		}
	default:
		for i, c := range s.peers {
			if c == full {
				s.peers[i] = s.peers[len(s.peers)-1]
				s.peers = s.peers[:len(s.peers)-1]
				break
			}
		}
	}
}

// BenchmarkAblationStateReprTypeCounts is the production representation.
func BenchmarkAblationStateReprTypeCounts(b *testing.B) {
	p := benchParams(4)
	s, err := sim.New(p, sim.WithSeed(1), sim.WithInitialPeers(
		map[pieceset.Set]int{pieceset.Full(4).Without(1): 2000}))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStateReprPerPeer is the per-peer reference at the same
// population.
func BenchmarkAblationStateReprPerPeer(b *testing.B) {
	p := benchParams(4)
	s := &perPeerSwarm{p: p, r: rng.New(1)}
	club := pieceset.Full(4).Without(1)
	for i := 0; i < 2000; i++ {
		s.peers = append(s.peers, club)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step()
	}
}

// BenchmarkAblationEventSamplingLinear measures the seed's linear walk
// over occupied types for weighted peer selection (replaced in production
// by the kernel's Fenwick sampler — see internal/kernel's
// BenchmarkSelect*).
func BenchmarkAblationEventSamplingLinear(b *testing.B) {
	benchSampling(b, false)
}

// BenchmarkAblationEventSamplingCumulative measures a rebuilt cumulative
// array with binary search per draw — faster asymptotically but it pays a
// rebuild per event because counts change every event.
func BenchmarkAblationEventSamplingCumulative(b *testing.B) {
	benchSampling(b, true)
}

func benchSampling(b *testing.B, cumulative bool) {
	b.Helper()
	r := rng.New(7)
	const types = 64
	counts := make([]int, types)
	total := 0
	for i := range counts {
		counts[i] = 1 + r.Intn(50)
		total += counts[i]
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		target := r.Intn(total)
		if cumulative {
			cum := make([]int, types)
			run := 0
			for j, c := range counts {
				run += c
				cum[j] = run
			}
			lo, hi := 0, types-1
			for lo < hi {
				mid := (lo + hi) / 2
				if cum[mid] <= target {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			sink += lo
			continue
		}
		for j, c := range counts {
			target -= c
			if target < 0 {
				sink += j
				break
			}
		}
	}
	_ = sink
}

// BenchmarkAblationSubspaceKeyCanonical measures map keying through the
// canonical RREF Key (production).
func BenchmarkAblationSubspaceKeyCanonical(b *testing.B) {
	f := gf.MustNew(4)
	r := rng.New(3)
	subs := randomSubspaces(b, f, 5, 200, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := make(map[string]int)
		for _, s := range subs {
			m[s.Key()]++
		}
	}
}

// BenchmarkAblationSubspaceKeyStructural measures the alternative keying by
// pairwise subset tests (what one must do without a canonical form).
func BenchmarkAblationSubspaceKeyStructural(b *testing.B) {
	f := gf.MustNew(4)
	r := rng.New(3)
	subs := randomSubspaces(b, f, 5, 200, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var reps []*gf.Subspace
		counts := make([]int, 0, 16)
		for _, s := range subs {
			found := -1
			for j, rep := range reps {
				a, err := s.SubsetOf(rep)
				if err != nil {
					b.Fatal(err)
				}
				c, err := rep.SubsetOf(s)
				if err != nil {
					b.Fatal(err)
				}
				if a && c {
					found = j
					break
				}
			}
			if found >= 0 {
				counts[found]++
			} else {
				reps = append(reps, s)
				counts = append(counts, 1)
			}
		}
	}
}

func randomSubspaces(b *testing.B, f *gf.Field, k, n int, r *rng.RNG) []*gf.Subspace {
	b.Helper()
	out := make([]*gf.Subspace, 0, n)
	for i := 0; i < n; i++ {
		s := gf.ZeroSubspace(f, k)
		for j := 0; j < r.Intn(3); j++ {
			v := make(gf.Vec, k)
			for t := range v {
				v[t] = r.Intn(f.Order())
			}
			var err error
			s, err = s.Add(v)
			if err != nil {
				b.Fatal(err)
			}
		}
		out = append(out, s)
	}
	return out
}

// --- kernel sampler scaling (linear scan vs Fenwick) -----------------------
//
// BenchmarkSwarmStepWideOneClub measures end-to-end event throughput of
// the type-count simulator in a many-types regime (K=16 arrivals spread
// across types), where the old linear scan dominated the event cost.
func BenchmarkSwarmStepWideOneClub(b *testing.B) {
	p := model.Params{
		K: 16, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 4},
	}
	initial := map[pieceset.Set]int{}
	r := rng.New(5)
	full := pieceset.Full(16)
	for i := 0; i < 3000; i++ {
		// A random non-full type per peer: a wide occupied-type front.
		c := pieceset.Set(r.Intn(1 << 16))
		if c == full {
			c = c.Without(1)
		}
		initial[c]++
	}
	s, err := sim.New(p, sim.WithSeed(1), sim.WithInitialPeers(initial))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBorderlineTopLayer measures raw transition throughput of the
// µ=∞ embedded chain on its top layer (Figure 3).
func BenchmarkBorderlineTopLayer(b *testing.B) {
	c, err := borderline.New(3, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.SetState(1_000_000, 2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

func BenchmarkE13QuasiStability(b *testing.B) { benchExperiment(b, "E13") }

func BenchmarkE14HeavyTraffic(b *testing.B) { benchExperiment(b, "E14") }

// --- engine scaling benchmarks -------------------------------------------
//
// Serial-vs-parallel pairs for the Monte-Carlo engine: the same replicated
// workload with a single worker and with one worker per core. The ratio is
// the perf trajectory's baseline for parallel replica execution.

// benchEngineReplicas runs a fixed engine job — replicated type-count
// swarms to a fixed horizon — at the given worker count.
func benchEngineReplicas(b *testing.B, workers int) {
	b.Helper()
	job := engine.Job{
		Name: "bench",
		Backend: &engine.SwarmBackend{
			Params: benchParams(3),
			Measure: func(ctx context.Context, rep int, sw *sim.Swarm) (engine.Sample, error) {
				if _, err := sw.RunUntil(200, 0); err != nil {
					return nil, err
				}
				return engine.Sample{"final_n": float64(sw.N())}, nil
			},
		},
		Replicas: 2 * runtime.NumCPU(),
		Seed:     1,
		Workers:  workers,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(context.Background(), job); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineReplicasSerial(b *testing.B) { benchEngineReplicas(b, 1) }

func BenchmarkEngineReplicasParallel(b *testing.B) { benchEngineReplicas(b, runtime.NumCPU()) }

// benchExperimentWorkers runs one registered experiment at quick scale with
// an explicit engine worker count.
func benchExperimentWorkers(b *testing.B, id string, workers int) {
	b.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(exp.Config{Quick: true, Seed: 1, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// E13 is the representative replicated experiment: five variants, each a
// replica pool of onset detections.
func BenchmarkE13Serial(b *testing.B) { benchExperimentWorkers(b, "E13", 1) }

func BenchmarkE13Parallel(b *testing.B) { benchExperimentWorkers(b, "E13", runtime.NumCPU()) }

// E1 is the representative empirical-classification sweep (six points ×
// replica pools through core.ClassifyEmpirically).
func BenchmarkE1Serial(b *testing.B) { benchExperimentWorkers(b, "E1", 1) }

func BenchmarkE1Parallel(b *testing.B) { benchExperimentWorkers(b, "E1", runtime.NumCPU()) }
