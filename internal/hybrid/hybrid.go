// Package hybrid is the adaptive multi-regime simulation backend: one
// replica of the Zhu–Hajek type-count chain advanced by whichever of three
// mechanisms is cheapest at the current state, with error-controlled
// switching between them.
//
//   - Exact regime — the event-by-event CTMC of internal/sim (kernel-backed),
//     used whenever any relevant type-coordinate is small. This is where the
//     paper's phenomena live (one-club formation, last-piece scarcity), so
//     near boundaries the hybrid IS the exact chain.
//   - Leap regime — Poisson tau-leaping over the aggregate transition rates
//     Γ_{C,C'} of equation (1), used when every tracked coordinate is large.
//     The step size comes from the Cao–Gillespie bounded-relative-change
//     selection, so no coordinate moves by more than a fraction ε per leap;
//     a leap that would drive a coordinate negative is rejected and redrawn
//     at half the step.
//   - Fluid regime — the internal/fluid mean-field ODE, entered only far
//     from every boundary when the step-doubling error estimate certifies the
//     deterministic approximation, and never while a hitting-time watch is
//     armed (watches need fluctuations).
//
// Switching uses hysteresis bands (enter thresholds strictly above exit
// thresholds) so the backend cannot thrash at a regime boundary.
//
// Determinism: every random draw — exact-kernel events and leap channel
// counts alike — comes from the replica's single stream, and the fluid
// regime consumes none, so a (seed, parameters) pair produces one
// byte-identical trajectory at any worker count, exactly the contract of the
// kernel-backed simulators.
package hybrid

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/fluid"
	"repro/internal/model"
	"repro/internal/pieceset"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Errors reported by the hybrid backend.
var (
	// ErrTooManyPieces: the dense 2^K state and channel enumeration are
	// sized for K ≤ 16, the same bound as the exact solver's dense states.
	ErrTooManyPieces = errors.New("hybrid: dense regimes limited to K <= 16")
	// ErrScenario: tau-leaping aggregates rates over a stationary law;
	// time-varying arrival profiles and churn overlays must use the exact
	// simulator.
	ErrScenario = errors.New("hybrid: scenarios are not supported")
)

// Regime identifies the active advancement mechanism.
type Regime int

// Regimes, from most exact to most aggregated.
const (
	Exact Regime = iota + 1
	Leap
	Fluid
)

// String names the regime.
func (r Regime) String() string {
	switch r {
	case Exact:
		return "exact"
	case Leap:
		return "leap"
	case Fluid:
		return "fluid"
	default:
		return fmt.Sprintf("regime(%d)", int(r))
	}
}

// The regime policy. Hysteresis bands apply to the smallest tracked
// coordinate (a type with peers present or positive arrival rate):
// tau-leaping starts when it reaches leapEnter and stops below leapExit;
// the fluid ODE starts at fluidEnter, where relative fluctuations are below
// 1/√50000 ≈ 0.5%, and stops below fluidExit.
const (
	leapEnter  = 64
	leapExit   = leapEnter / 2
	fluidEnter = 50000
	fluidExit  = fluidEnter / 2

	// epsilon is the Cao–Gillespie relative-change bound per leap.
	epsilon = 0.05
	// minLeapEvents is the smallest expected event count per leap worth
	// taking: when the selected tau would batch fewer events, the exact
	// kernel is cheaper and the backend falls back to it.
	minLeapEvents = 16
	// checkEvery is how many exact events pass between leap-eligibility
	// checks; the check snapshots the sparse counts, so it is kept off the
	// per-event path.
	checkEvery = 64
	// exactDwell is the minimum number of exact events after a leap→exact
	// fallback before eligibility is reconsidered, the anti-thrash guard for
	// states that hover at the minLeapEvents margin.
	exactDwell = 512
	// fluidTol is the per-step relative local error (step-doubling
	// estimate) the fluid regime must sustain, both to enter and to keep
	// its adaptive step.
	fluidTol = 1e-6
)

// Thresholds renders the regime policy for cache identities (sweep
// evaluators) and reports. Its bytes key stored cells, so it must change
// exactly when the policy does.
const Thresholds = "leap=64/32;fluid=50000/25000;eps=0.05;minlev=16;chk=64;dwell=512;ftol=1e-06"

// Stats counts the work the three regimes performed.
type Stats struct {
	Events      uint64  // ExactEvents + LeapEvents
	ExactEvents uint64  // kernel event clock ticks in the exact regime
	LeapEvents  uint64  // physical transitions fired inside leaps
	Leaps       uint64  // committed tau-leap steps
	LeapRejects uint64  // leaps redrawn after driving a coordinate negative
	Switches    uint64  // regime changes
	FluidSteps  uint64  // committed fluid ODE steps (step-doubling pairs)
	Rebuilds    uint64  // exact sub-simulators constructed
	ExactTime   float64 // simulated time covered by the exact regime
	LeapTime    float64 // simulated time covered by leaps
	FluidTime   float64 // simulated time covered by the fluid ODE
}

// Option configures a Swarm.
type Option func(*config)

type config struct {
	seed    uint64
	rng     *rng.RNG
	initial map[pieceset.Set]int
}

// WithSeed sets the deterministic RNG seed (default 1).
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithRNG hands the swarm a pre-seeded generator, overriding WithSeed; the
// swarm takes ownership (the parallel engine passes per-replica streams).
func WithRNG(r *rng.RNG) Option {
	return func(c *config) { c.rng = r }
}

// WithInitialPeers seeds the swarm with pre-existing peers by type. The map
// is copied.
func WithInitialPeers(counts map[pieceset.Set]int) Option {
	return func(c *config) {
		c.initial = make(map[pieceset.Set]int, len(counts))
		for k, v := range counts {
			c.initial[k] = v
		}
	}
}

// Swarm is one adaptive-regime sample path. It is not safe for concurrent
// use; the engine runs one Swarm per replica.
type Swarm struct {
	params model.Params
	r      *rng.RNG
	full   pieceset.Set
	dim    int

	// The hysteresis bands, the package constants; in-package tests narrow
	// them after New to exercise the handoffs at small populations.
	leapEnter, leapExit, fluidEnter, fluidExit int64

	x   []int64 // dense type counts (authoritative outside the fluid regime)
	n   int64   // Σ x, maintained incrementally
	now float64 // global simulated time across regimes

	regime    Regime
	exactHold uint64 // exact events to dwell before rechecking eligibility

	occ     dist.TimeAverage // time-averaged population across regimes
	watches []watch
	stats   Stats
	met     metrics

	arrivalTypes []pieceset.Set
	arrivalRates []float64
	lambdaByIdx  []float64 // λ_C indexed by type bitmask

	// Leap scratch, reused across steps.
	chans     []channel
	muBuf     []float64
	sigBuf    []float64
	deltaBuf  []int64
	occupied  []pieceset.Set
	countsBuf map[pieceset.Set]int

	// Fluid scratch.
	fsys    *fluid.System
	fstep   *fluid.Stepper
	xf      []float64
	xfPrev  []float64
	fluidDt float64
}

// New validates the parameters and builds a hybrid swarm in the exact
// regime. Construction consumes no randomness.
func New(p model.Params, opts ...Option) (*Swarm, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	if p.K > 16 {
		return nil, ErrTooManyPieces
	}
	cfg := config{seed: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	fsys, err := fluid.New(p)
	if err != nil {
		return nil, err
	}
	dim := 1 << uint(p.K)
	h := &Swarm{
		params:     p,
		leapEnter:  leapEnter,
		leapExit:   leapExit,
		fluidEnter: fluidEnter,
		fluidExit:  fluidExit,
		full:       pieceset.Full(p.K),
		dim:        dim,
		x:          make([]int64, dim),
		regime:     Exact,
		met:        grabMetrics(),
		muBuf:      make([]float64, dim),
		sigBuf:     make([]float64, dim),
		deltaBuf:   make([]int64, dim),
		countsBuf:  make(map[pieceset.Set]int, dim),
		fsys:       fsys,
		fstep:      fsys.NewStepper(),
		xf:         make([]float64, dim),
		xfPrev:     make([]float64, dim),
	}
	if cfg.rng != nil {
		h.r = cfg.rng
	} else {
		h.r = rng.New(cfg.seed)
	}
	h.lambdaByIdx = make([]float64, dim)
	for _, c := range p.ArrivalTypes() {
		h.arrivalTypes = append(h.arrivalTypes, c)
		h.arrivalRates = append(h.arrivalRates, p.Lambda[c])
		h.lambdaByIdx[int(c)] = p.Lambda[c]
	}
	err = p.AddInitial(cfg.initial, func(c pieceset.Set, count int) {
		h.x[int(c)] += int64(count)
		h.n += int64(count)
	})
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	return h, nil
}

// Params returns the model parameters.
func (h *Swarm) Params() model.Params { return h.params }

// Now returns the current simulated time.
func (h *Swarm) Now() float64 { return h.now }

// N returns the current number of peers.
func (h *Swarm) N() int { return int(h.n) }

// CountOf returns the number of type-c peers.
func (h *Swarm) CountOf(c pieceset.Set) int { return int(h.x[int(c)]) }

// PeerSeeds returns x_F, the number of peers holding the full collection.
func (h *Swarm) PeerSeeds() int { return int(h.x[int(h.full)]) }

// OneClub returns x_{F−{piece}}, the one-club of the missing-piece
// syndrome (0 for a piece out of range).
func (h *Swarm) OneClub(piece int) int {
	if piece < 1 || piece > h.params.K {
		return 0
	}
	return int(h.x[int(h.full.Without(piece))])
}

// Stats returns the cumulative work counters.
func (h *Swarm) Stats() Stats {
	st := h.stats
	st.Events = st.ExactEvents + st.LeapEvents
	return st
}

// MeanPeers returns the time-averaged population since construction (or the
// last ResetOccupancy), the estimator for E[N]; it spans regime switches.
func (h *Swarm) MeanPeers() float64 { return h.occ.Value() }

// ResetOccupancy restarts the E[N] estimator at the current instant,
// discarding burn-in.
func (h *Swarm) ResetOccupancy() {
	h.occ = dist.TimeAverage{}
	h.occ.Observe(h.now, float64(h.n))
}

// trackedMin returns the smallest tracked coordinate: a type is tracked
// when it has peers present or positive arrival rate; the full type is
// excluded under γ = ∞ (it is identically zero there).
func (h *Swarm) trackedMin() int64 {
	m := int64(math.MaxInt64)
	for idx, v := range h.x {
		if h.params.GammaInf() && pieceset.Set(idx) == h.full {
			continue
		}
		if v == 0 && h.lambdaByIdx[idx] == 0 {
			continue
		}
		if v < m {
			m = v
		}
	}
	if m == math.MaxInt64 {
		return 0
	}
	return m
}

// RunUntil advances the swarm until simulated time reaches maxTime or the
// population reaches maxPeers (whichever first), switching regimes as the
// state moves through the hysteresis bands. maxPeers <= 0 disables the
// population limit; an armed watch that fires reports StopObserver.
func (h *Swarm) RunUntil(maxTime float64, maxPeers int) (sim.StopReason, error) {
	if !h.occ.Started() {
		h.occ.Observe(h.now, float64(h.n))
	}
	for {
		if maxPeers > 0 && h.n >= int64(maxPeers) {
			return sim.StopPeers, nil
		}
		if h.watchFired() {
			return sim.StopObserver, nil
		}
		if h.now >= maxTime {
			return sim.StopTime, nil
		}
		var (
			reason sim.StopReason
			done   bool
			err    error
		)
		switch h.regime {
		case Exact:
			reason, done, err = h.runExact(maxTime, maxPeers)
		case Leap:
			reason, done, err = h.runLeap(maxTime, maxPeers)
		case Fluid:
			reason, done, err = h.runFluid(maxTime, maxPeers)
		default:
			return 0, fmt.Errorf("hybrid: unknown regime %v", h.regime)
		}
		if err != nil {
			return 0, err
		}
		if done {
			return reason, nil
		}
	}
}

// switchTo commits a regime change: counter, telemetry, trace instant.
func (h *Swarm) switchTo(r Regime) {
	h.regime = r
	h.stats.Switches++
	h.met.switches.Inc()
	h.met.instant(instSwitch, int64(r))
}

// runExact advances the chain event by event on a freshly built exact
// simulator seeded from the dense counts, sharing the hybrid's RNG stream.
// It returns done=false after syncing state back when the leap regime
// becomes eligible.
func (h *Swarm) runExact(maxTime float64, maxPeers int) (sim.StopReason, bool, error) {
	sw, err := sim.New(h.params,
		sim.WithInitialPeers(h.denseToCounts()),
		sim.WithRNG(h.r),
	)
	if err != nil {
		return 0, false, fmt.Errorf("hybrid: exact rebuild: %w", err)
	}
	h.stats.Rebuilds++
	base := h.now
	dwell := h.exactHold
	h.exactHold = 0
	var events uint64
	nextCheck := dwell
	sync := func() {
		h.syncFromSim(sw, base, events)
	}
	for {
		t := base + sw.Now()
		if maxPeers > 0 && sw.N() >= maxPeers {
			sync()
			return sim.StopPeers, true, nil
		}
		if h.watchFiredSim(sw) {
			sync()
			return sim.StopObserver, true, nil
		}
		if t >= maxTime {
			sync()
			return sim.StopTime, true, nil
		}
		if events >= nextCheck {
			nextCheck = events + checkEvery
			if h.exactEligibleForLeap(sw) {
				sync()
				h.switchTo(Leap)
				return 0, false, nil
			}
		}
		if err := sw.Step(); err != nil {
			sync()
			return 0, false, fmt.Errorf("hybrid: exact step: %w", err)
		}
		events++
		h.occ.Observe(base+sw.Now(), float64(sw.N()))
	}
}

// exactEligibleForLeap snapshots the exact simulator's counts and applies
// the leapEnter threshold to the smallest tracked coordinate.
func (h *Swarm) exactEligibleForLeap(sw *sim.Swarm) bool {
	counts := sw.SparseCountsInto(h.countsBuf)
	m := int64(math.MaxInt64)
	for idx := 0; idx < h.dim; idx++ {
		c := pieceset.Set(idx)
		if h.params.GammaInf() && c == h.full {
			continue
		}
		v := int64(counts[c])
		if v == 0 && h.lambdaByIdx[idx] == 0 {
			continue
		}
		if v < m {
			m = v
		}
	}
	return m != math.MaxInt64 && m >= h.leapEnter
}

// denseToCounts converts the dense state into the sparse map sim.New wants,
// reusing the scratch map.
func (h *Swarm) denseToCounts() map[pieceset.Set]int {
	clear(h.countsBuf)
	for idx, v := range h.x {
		if v != 0 {
			h.countsBuf[pieceset.Set(idx)] = int(v)
		}
	}
	return h.countsBuf
}

// syncFromSim copies the exact simulator's state back into the dense
// representation and books the work it did.
func (h *Swarm) syncFromSim(sw *sim.Swarm, base float64, events uint64) {
	counts := sw.SparseCountsInto(h.countsBuf)
	for i := range h.x {
		h.x[i] = 0
	}
	var n int64
	for c, v := range counts {
		h.x[int(c)] = int64(v)
		n += int64(v)
	}
	h.n = n
	h.now = base + sw.Now()
	h.stats.ExactEvents += events
	h.stats.ExactTime += sw.Now()
	h.met.exactEvents.Add(events)
}
