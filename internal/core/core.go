// Package core is the library's primary entry point: it ties the Zhu–Hajek
// model (internal/model), the Theorem 1 / Theorem 15 stability theory
// (internal/stability), the event-driven simulator (internal/sim), and the
// exact truncated solver (internal/markov) behind one System type. A
// downstream user configures a System with the paper's parameters and asks
// it for the theoretical verdict, an empirical verdict from Monte-Carlo
// sample paths, exact stationary statistics at small scale, or raw swarms
// to drive directly.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/hybrid"
	"repro/internal/kernel"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stability"
)

// Re-exported verdicts so callers need only import core for the common path.
const (
	PositiveRecurrent = stability.PositiveRecurrent
	Transient         = stability.Transient
	Borderline        = stability.Borderline
)

// ErrBadConfig reports invalid empirical-run configuration.
var ErrBadConfig = errors.New("core: invalid run configuration")

// System is a P2P file-distribution system instance under the paper's
// model. It is immutable after construction and safe for concurrent use by
// methods that do not share swarms.
type System struct {
	params   model.Params
	analysis stability.Analysis
}

// NewSystem validates parameters and precomputes the Theorem 1 analysis.
func NewSystem(p model.Params) (*System, error) {
	a, err := stability.Classify(p)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &System{params: p, analysis: a}, nil
}

// Params returns the model parameters.
func (s *System) Params() model.Params { return s.params }

// Stability returns the precomputed Theorem 1 analysis.
func (s *System) Stability() stability.Analysis { return s.analysis }

// Verdict returns the theoretical stability verdict.
func (s *System) Verdict() stability.Verdict { return s.analysis.Verdict }

// CriticalPiece returns the piece whose missing-piece syndrome binds first
// (0 in the γ ≤ µ branch, where no piece is rate-limiting).
func (s *System) CriticalPiece() int { return s.analysis.CriticalPiece }

// OneClubGrowthRate returns the predicted linear growth rate ∆_{F−{k}} of
// the critical one-club in the transient regime. It errors in the γ ≤ µ
// branch where ∆ is undefined.
func (s *System) OneClubGrowthRate() (float64, error) {
	if s.analysis.GammaLeMu {
		return 0, errors.New("core: one-club growth undefined for γ ≤ µ")
	}
	return stability.OneClubGrowthRate(s.params, s.analysis.CriticalPiece)
}

// NewSwarm builds a fresh simulator for this system.
func (s *System) NewSwarm(opts ...sim.Option) (*sim.Swarm, error) {
	return sim.New(s.params, opts...)
}

// ExactStationary solves the truncated chain at level nmax and returns the
// stationary statistics. Only meaningful for stable systems at small K.
func (s *System) ExactStationary(nmax int) (*markov.StationaryResult, error) {
	c, err := markov.Build(s.params, nmax)
	if err != nil {
		return nil, err
	}
	return c.Stationary(0, 0)
}

// MeanSojournTime converts a mean population into a mean time-in-system via
// Little's law: E[T] = E[N]/λ_total.
func (s *System) MeanSojournTime(meanPeers float64) float64 {
	return meanPeers / s.params.LambdaTotal()
}

// RunConfig controls an empirical Monte-Carlo classification.
type RunConfig struct {
	// Horizon is the simulated time per replica (required, > 0).
	Horizon float64
	// PeerCap stops a replica early when the population reaches it
	// (required, > 0); hitting the cap marks the replica as growing.
	PeerCap int
	// Replicas is the number of independent sample paths (default 5).
	Replicas int
	// Seed is the base RNG seed; each replica runs on an independent
	// stream split off it by the engine, in replica order (default 1).
	Seed uint64
	// Policy overrides the piece-selection policy (default random useful).
	Policy sim.Policy
	// Scenario overlays workload dynamics — a time-varying arrival profile
	// and/or churn of not-yet-complete peers — on every replica. The zero
	// value runs the plain stationary model.
	Scenario kernel.Scenario
	// Workers bounds the engine worker pool running the replicas
	// (0 = engine default, the process GOMAXPROCS; 1 = serial).
	Workers int
	// Sink, when non-nil, receives structured per-replica records and the
	// aggregate from the underlying engine job.
	Sink engine.Sink
	// Progress, when non-nil, is forwarded to the engine job: called after
	// each replica completes with the number done and the total. Calls
	// follow scheduling; classification outcomes are unchanged.
	Progress func(done, total int)
	// Context cancels the run mid-flight (nil = background).
	Context context.Context
}

func (c *RunConfig) normalize() error {
	if !(c.Horizon > 0) || math.IsInf(c.Horizon, 0) {
		return fmt.Errorf("%w: horizon %v", ErrBadConfig, c.Horizon)
	}
	if c.PeerCap <= 0 {
		return fmt.Errorf("%w: peer cap %d", ErrBadConfig, c.PeerCap)
	}
	if c.Replicas <= 0 {
		c.Replicas = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Policy == nil {
		c.Policy = sim.RandomUseful{}
	}
	if err := c.Scenario.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return nil
}

// Empirical is the Monte-Carlo classification outcome.
type Empirical struct {
	// Grew reports whether a majority of replicas grew (hit the peer cap
	// or ended at least half-way to it).
	Grew bool
	// GrowFraction is the fraction of growing replicas.
	GrowFraction float64
	// MeanOccupancy averages the post-burn-in time-averaged population
	// over the replicas that did not grow (NaN if all grew).
	MeanOccupancy float64
	// MeanFinalN averages the final population over all replicas.
	MeanFinalN float64
	// Replicas echoes the number of sample paths run.
	Replicas int
}

// Label renders the outcome as the table/phase-map class: "grows" or
// "bounded".
func (e Empirical) Label() string {
	if e.Grew {
		return "grows"
	}
	return "bounded"
}

// Agrees reports whether the empirical outcome matches a theoretical
// verdict (growth ⇔ transience). Borderline matches either.
func (e Empirical) Agrees(v stability.Verdict) bool {
	switch v {
	case stability.Transient:
		return e.Grew
	case stability.PositiveRecurrent:
		return !e.Grew
	default:
		return true
	}
}

// ClassifyHybrid is ClassifyEmpirically on the adaptive multi-regime
// backend (internal/hybrid): exact CTMC near boundaries, tau-leaping in the
// bulk, fluid ODE deep in the interior. The classification protocol —
// burn-in, slices, the grew criterion — is shared, so verdicts are
// comparable cell for cell with the exact evaluator; what changes is the
// cost at large scale. Scenarios and non-default policies are rejected:
// tau-leaping aggregates the stationary RandomUseful rates of equation (1).
func (s *System) ClassifyHybrid(cfg RunConfig) (Empirical, error) {
	if err := cfg.normalize(); err != nil {
		return Empirical{}, err
	}
	if cfg.Scenario.Active() {
		return Empirical{}, fmt.Errorf("%w: %w", ErrBadConfig, hybrid.ErrScenario)
	}
	if _, ok := cfg.Policy.(sim.RandomUseful); !ok {
		return Empirical{}, fmt.Errorf("%w: hybrid backend supports only the random-useful policy", ErrBadConfig)
	}
	return s.classify(cfg, &engine.HybridBackend{
		Label:  "classify-hybrid",
		Params: s.params,
		Measure: func(ctx context.Context, rep int, h *hybrid.Swarm) (engine.Sample, error) {
			sample, err := classifyReplica(ctx, cfg, h)
			if err != nil {
				return nil, err
			}
			st := h.Stats()
			sample["leaps"] = float64(st.Leaps)
			sample["exact_events"] = float64(st.ExactEvents)
			sample["fluid_steps"] = float64(st.FluidSteps)
			return sample, nil
		},
	})
}

// ClassifyEmpirically runs independent replicas through the parallel
// Monte-Carlo engine and reports whether the population grows — the
// sample-path counterpart of Theorem 1's dichotomy. Results are
// deterministic in the base seed regardless of cfg.Workers.
func (s *System) ClassifyEmpirically(cfg RunConfig) (Empirical, error) {
	if err := cfg.normalize(); err != nil {
		return Empirical{}, err
	}
	return s.classify(cfg, &engine.SwarmBackend{
		Label:   "classify",
		Params:  s.params,
		Options: []sim.Option{sim.WithPolicy(cfg.Policy), sim.WithScenario(cfg.Scenario)},
		Measure: func(ctx context.Context, rep int, sw *sim.Swarm) (engine.Sample, error) {
			return classifyReplica(ctx, cfg, sw)
		},
	})
}

// classifiable is what the classification protocol needs of a swarm; the
// exact (sim.Swarm) and multi-regime (hybrid.Swarm) simulators provide it.
type classifiable interface {
	RunUntil(maxTime float64, maxPeers int) (sim.StopReason, error)
	ResetOccupancy()
	Now() float64
	N() int
	MeanPeers() float64
}

// classifyReplica is the one replica body of the classification protocol:
// burn in to Horizon/5, restart the occupancy estimator, then advance to
// the horizon in eighths (checking ctx between slices so a cancelled run
// stops promptly). The replica grew when it hit the peer cap or ended at
// least half-way to it; otherwise its post-burn-in occupancy is sampled.
func classifyReplica[S classifiable](ctx context.Context, cfg RunConfig, sw S) (engine.Sample, error) {
	burnIn := cfg.Horizon / 5
	reason, err := sw.RunUntil(burnIn, cfg.PeerCap)
	if err != nil {
		return nil, err
	}
	if reason != sim.StopPeers {
		sw.ResetOccupancy()
		step := (cfg.Horizon - burnIn) / 8
		for target := burnIn + step; reason != sim.StopPeers && sw.Now() < cfg.Horizon; target += step {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if target > cfg.Horizon {
				target = cfg.Horizon
			}
			reason, err = sw.RunUntil(target, cfg.PeerCap)
			if err != nil {
				return nil, err
			}
		}
	}
	sample := engine.Sample{"final_n": float64(sw.N())}
	if reason == sim.StopPeers || sw.N() >= cfg.PeerCap/2 {
		sample["grew"] = 1
	} else {
		sample["occupancy"] = sw.MeanPeers()
	}
	return sample, nil
}

// classify runs the replicas of one classification job on backend (the
// job is named after it) and folds them into the majority verdict.
func (s *System) classify(cfg RunConfig, backend engine.Backend) (Empirical, error) {
	res, err := engine.Run(cfg.Context, engine.Job{
		Name:     backend.Name() + "/" + s.params.String(),
		Backend:  backend,
		Replicas: cfg.Replicas,
		Seed:     cfg.Seed,
		Workers:  cfg.Workers,
		Sink:     cfg.Sink,
		Progress: cfg.Progress,
	})
	if err != nil {
		return Empirical{}, err
	}
	grew := res.Count("grew")
	out := Empirical{
		Replicas:      cfg.Replicas,
		Grew:          2*grew > cfg.Replicas,
		GrowFraction:  float64(grew) / float64(cfg.Replicas),
		MeanFinalN:    res.Mean("final_n"),
		MeanOccupancy: math.NaN(),
	}
	if res.Count("occupancy") > 0 {
		out.MeanOccupancy = res.Mean("occupancy")
	}
	return out, nil
}
