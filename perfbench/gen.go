package main

import (
	"fmt"
	"math"

	"repro/internal/gf"
	"repro/internal/model"
	"repro/internal/pieceset"
	"repro/internal/rng"
	"repro/internal/stability"
	"repro/internal/sweep"
)

// The input generator: one seed determines every workload's points and
// streams, and every point is checked against Theorem 1 (or Theorem 15 for
// the coded swarm) so it lands on its intended side of the stability
// boundary. Sizes are fixed; the seed moves the parameter values by at
// most a few percent and draws the engine's replica streams, so a round
// costs about the same at every seed and timings compare across seeds.

// uniform draws from [lo, hi).
func uniform(r *rng.RNG, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// exactPoint is one long stationary sample path of replicas-exact.
type exactPoint struct {
	Params  model.Params
	Horizon float64
	PeerCap int
}

// codedPoint is the coded swarm's replicas-exact point.
type codedPoint struct {
	Params  stability.CodedParams
	Horizon float64
	PeerCap int
}

// replicaInputs are replicas-exact's three engine jobs.
type replicaInputs struct {
	Sim, Peer exactPoint
	Coded     codedPoint
	Replicas  int // per job
	Seed      uint64
	// SeriesDT is the decimated series' initial ladder spacing, as a share
	// of the horizon.
	SeriesDT float64
}

// Per-replica event budgets, sized so each of the three jobs takes a
// similar share of a round on one core.
const (
	simEvents   = 125_000
	peerEvents  = 75_000
	codedEvents = 37_500
	// eventsPerLambda is the steady-state event rate per unit of λ0 at
	// the replicas-exact points (K = 3, µ = 1, γ = 2, U_s ≈ 0.7 λ0):
	// arrivals, seed ticks, peer contacts and departures.
	eventsPerLambda = 6
)

// stableK3 draws a K = 3, µ = 1, γ = 2 point with empty arrivals near
// the population scale n (λ0 ≈ n/4), and checks it is stable.
func stableK3(r *rng.RNG, n, events float64) (exactPoint, error) {
	lambda0 := n / 4 * uniform(r, 0.99, 1.01)
	p := model.Params{
		K: 3, Us: uniform(r, 0.67, 0.68) * lambda0, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: lambda0},
	}
	if err := wantVerdict(p, stability.PositiveRecurrent); err != nil {
		return exactPoint{}, err
	}
	return exactPoint{
		Params:  p,
		Horizon: events / (eventsPerLambda * lambda0),
		PeerCap: int(40 * lambda0),
	}, nil
}

// genReplicas draws the three stable points: the type-count swarm near
// N = 3000, the peer-granular one near N = 10000 and the coded one near
// N = 1000.
func genReplicas(seed uint64) (*replicaInputs, error) {
	r := rng.New(seed ^ 0x1ead)
	in := &replicaInputs{Replicas: 16, SeriesDT: 1.0 / 64, Seed: r.Uint64()}
	var err error
	if in.Sim, err = stableK3(r, 3000, simEvents); err != nil {
		return nil, err
	}
	if in.Peer, err = stableK3(r, 10000, peerEvents); err != nil {
		return nil, err
	}
	field, err := gf.New(2)
	if err != nil {
		return nil, err
	}
	lambda0 := 250 * uniform(r, 0.99, 1.01)
	cp := stability.CodedParams{
		// Theorem 15's recurrence bound is U_s/(1 − µ̃/γ) with µ̃ = µ(1 − 1/q),
		// 1.33·U_s here, so U_s ≥ 1.7·λ0 keeps a wide margin.
		K: 3, Field: field, Us: uniform(r, 1.74, 1.76) * lambda0, Mu: 1, Gamma: 2,
		Arrivals: []stability.CodedArrival{{V: gf.ZeroSubspace(field, 3), Rate: lambda0}},
	}
	a, err := stability.ClassifyCoded(cp)
	if err != nil {
		return nil, err
	}
	if a.Verdict != stability.PositiveRecurrent {
		return nil, fmt.Errorf("coded point λ0=%g U_s=%g: verdict %v, want positive-recurrent", lambda0, cp.Us, a.Verdict)
	}
	in.Coded = codedPoint{
		Params:  cp,
		Horizon: codedEvents / (eventsPerLambda * lambda0),
		PeerCap: int(40 * lambda0),
	}
	return in, nil
}

// wantVerdict checks a point's Theorem 1 verdict, and that the arrival
// scale at which the boundary is crossed sits on the same side: above 1
// for a stable point, below 1 for a transient one.
func wantVerdict(p model.Params, want stability.Verdict) error {
	a, err := stability.Classify(p)
	if err != nil {
		return err
	}
	if a.Verdict != want {
		return fmt.Errorf("point %s: verdict %v, want %v", p, a.Verdict, want)
	}
	crit, err := stability.CriticalScale(p)
	if err != nil {
		return err
	}
	if (crit > 1) != (want == stability.PositiveRecurrent) {
		return fmt.Errorf("point %s: critical arrival scale %g on the wrong side", p, crit)
	}
	return nil
}

// hybridPoint is one hybrid-scale point: R replicas share it.
type hybridPoint struct {
	Params  model.Params
	Initial map[pieceset.Set]int // nil starts empty
	Stable  bool                 // Theorem 1 verdict
	Horizon float64
	PeerCap int
}

// hybridInputs are hybrid-scale's points.
type hybridInputs struct {
	Points   []hybridPoint
	Replicas int // per point
}

// hybridScales are the nominal population scales, jittered per seed.
var hybridScales = []float64{1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6}

func genHybrid(seed uint64) (*hybridInputs, error) {
	r := rng.New(seed ^ 0x4b1d)
	in := &hybridInputs{Replicas: 6}
	for _, base := range hybridScales {
		n := base * uniform(r, 0.99, 1.01)
		lambda0 := n / 3
		for _, stable := range []bool{true, false} {
			c := uniform(r, 1.27, 1.28) // U_s / λ0: stable when above 1 at γ = ∞
			if !stable {
				c = uniform(r, 0.795, 0.805)
			}
			p := model.Params{
				K: 2, Us: c * lambda0, Mu: 1, Gamma: math.Inf(1),
				Lambda: map[pieceset.Set]float64{pieceset.Empty: lambda0},
			}
			want := stability.Transient
			if stable {
				want = stability.PositiveRecurrent
			}
			if err := wantVerdict(p, want); err != nil {
				return nil, err
			}
			for _, balanced := range []bool{false, true} {
				pt := hybridPoint{
					Params: p, Stable: stable,
					Horizon: 8000, PeerCap: int(3 * n),
				}
				if balanced {
					third := int(n / 3)
					pt.Initial = map[pieceset.Set]int{
						pieceset.Empty: third, pieceset.MustOf(1): third, pieceset.MustOf(2): third,
					}
				}
				in.Points = append(in.Points, pt)
			}
		}
	}
	return in, nil
}

// phasemapInputs are phasemap-adaptive's grid and evaluator.
type phasemapInputs struct {
	Grid      sweep.Grid // cold pass; the warm pass runs one depth deeper
	Evaluator sweep.Empirical
}

func genPhasemap(seed uint64) (*phasemapInputs, error) {
	r := rng.New(seed ^ 0x9a9e)
	xAxis, err := sweep.AxisByName("lambda0")
	if err != nil {
		return nil, err
	}
	yAxis, err := sweep.AxisByName("us")
	if err != nil {
		return nil, err
	}
	base := model.Params{
		K: 1, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
	g := sweep.Grid{
		Base:        base,
		X:           sweep.AxisSpec{Axis: xAxis, Min: 0.25 * uniform(r, 0.995, 1.005), Max: 5 * uniform(r, 0.995, 1.005), Cells: 8},
		Y:           sweep.AxisSpec{Axis: yAxis, Min: 0.4 * uniform(r, 0.995, 1.005), Max: 2 * uniform(r, 0.995, 1.005), Cells: 6},
		RefineDepth: 2,
	}
	// The window must straddle the boundary λ0* = 2·U_s: its low-λ0,
	// high-U_s corner stable, its high-λ0, low-U_s corner transient, and
	// the base grid must have cells on both sides.
	at := func(l0, us float64) model.Params {
		p := base
		p.Us = us
		p.Lambda = map[pieceset.Set]float64{pieceset.Empty: l0}
		return p
	}
	if err := wantVerdict(at(g.X.Min, g.Y.Max), stability.PositiveRecurrent); err != nil {
		return nil, err
	}
	if err := wantVerdict(at(g.X.Max, g.Y.Min), stability.Transient); err != nil {
		return nil, err
	}
	sides := map[stability.Verdict]int{}
	for iy := 0; iy < g.Y.Cells; iy++ {
		for ix := 0; ix < g.X.Cells; ix++ {
			x := g.X.Min + (g.X.Max-g.X.Min)*(float64(ix)+0.5)/float64(g.X.Cells)
			y := g.Y.Min + (g.Y.Max-g.Y.Min)*(float64(iy)+0.5)/float64(g.Y.Cells)
			a, err := stability.Classify(at(x, y))
			if err != nil {
				return nil, err
			}
			sides[a.Verdict]++
		}
	}
	if sides[stability.PositiveRecurrent] == 0 || sides[stability.Transient] == 0 {
		return nil, fmt.Errorf("base grid does not straddle the boundary: %v", sides)
	}
	return &phasemapInputs{
		Grid:      g,
		Evaluator: sweep.Empirical{Horizon: 300, PeerCap: 200, Replicas: 3},
	}, nil
}

// solveCell is one exact-solve cell: the truncated chain at NMax.
type solveCell struct {
	Params model.Params
	NMax   int
}

// exactInputs are exact-solve's cells, in evaluation order.
type exactInputs struct {
	Cells   []solveCell
	MaxIter int
	Tol     float64
}

func genExact(seed uint64) (*exactInputs, error) {
	r := rng.New(seed ^ 0xe4ac)
	in := &exactInputs{MaxIter: 2_000_000, Tol: 1e-10} // E14's solver settings
	// K = 1, Example 1 (U_s = µ = 1, γ = 2, boundary λ0* = 2): margins
	// from E10's λ0 = 0.8 and 1.2 up to E14's widest, truncation sized to
	// the margin so the boundary mass stays below 1e-4.
	for _, l0 := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2} {
		l := l0 * uniform(r, 0.995, 1.005)
		nmax := 50
		switch {
		case l <= 0.75:
			nmax = 35
		case l <= 0.95:
			nmax = 40
		case l <= 1.05:
			nmax = 45
		}
		in.Cells = append(in.Cells, solveCell{
			Params: model.Params{K: 1, Us: 1, Mu: 1, Gamma: 2,
				Lambda: map[pieceset.Set]float64{pieceset.Empty: l}},
			NMax: nmax,
		})
	}
	// K = 2, E10's λ∅ = 0.4, λ{1} = 0.2 point, scaled.
	for _, s := range []float64{0.6, 0.8, 1.0, 1.1} {
		s *= uniform(r, 0.995, 1.005)
		nmax := 15
		switch {
		case s <= 0.85:
			nmax = 12
		case s <= 1.03:
			nmax = 14
		}
		in.Cells = append(in.Cells, solveCell{
			Params: model.Params{K: 2, Us: 1, Mu: 1, Gamma: 2,
				Lambda: map[pieceset.Set]float64{pieceset.Empty: 0.4 * s, pieceset.MustOf(1): 0.2 * s}},
			NMax: nmax,
		})
	}
	for _, c := range in.Cells {
		if err := wantVerdict(c.Params, stability.PositiveRecurrent); err != nil {
			return nil, err
		}
	}
	return in, nil
}
