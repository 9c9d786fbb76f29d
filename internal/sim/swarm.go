package sim

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pieceset"
	"repro/internal/rng"
)

// Errors reported by the simulator.
var (
	ErrTooManyPieces = errors.New("sim: dense snapshot limited to K <= 16")
	// ErrNoProgress reports a zero total event rate; it is the kernel's
	// sentinel so errors.Is works across every kernel-backed simulator.
	ErrNoProgress = kernel.ErrNoProgress
)

// StopReason explains why RunUntil returned; the kernel owns the run loop
// and its stop reasons.
type StopReason = kernel.StopReason

// Stop reasons.
const (
	StopTime     = kernel.StopTime     // simulated time reached the limit
	StopPeers    = kernel.StopPeers    // population reached the limit
	StopObserver = kernel.StopObserver // an attached hitting-time watcher halted the run
)

// Stats counts the physical events a swarm has processed.
type Stats struct {
	Events     uint64 // total event clock ticks processed
	Arrivals   uint64 // exogenous peer arrivals
	Departures uint64 // peers that left (seed dwell expiry or γ=∞ completion)
	Uploads    uint64 // successful piece transfers (seed or peer uploads)
	NoOps      uint64 // contacts that found no useful piece
	Thinned    uint64 // arrival candidates rejected by a time-varying profile
	Churned    uint64 // not-yet-complete peers lost to scenario churn
}

// Option configures a Swarm.
type Option func(*config)

type config struct {
	seed     uint64
	rng      *rng.RNG
	policy   Policy
	initial  map[pieceset.Set]int
	scenario kernel.Scenario
}

// WithSeed sets the deterministic RNG seed (default 1).
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithRNG hands the swarm a pre-seeded generator, overriding WithSeed. The
// parallel engine uses this to drive each replica from an independent
// stream split off a base seed; the swarm takes ownership of the generator.
func WithRNG(r *rng.RNG) Option {
	return func(c *config) { c.rng = r }
}

// WithPolicy sets the piece-selection policy (default RandomUseful).
func WithPolicy(p Policy) Option {
	return func(c *config) { c.policy = p }
}

// WithScenario overlays workload dynamics on the stationary model: a
// time-varying arrival profile (flash crowds, simulated by thinning) and
// churn of not-yet-complete peers. The zero scenario is the plain model.
func WithScenario(s kernel.Scenario) Option {
	return func(c *config) { c.scenario = s }
}

// WithInitialPeers seeds the swarm with pre-existing peers by type, e.g. a
// large one-club for missing-piece-syndrome experiments. The map is copied.
func WithInitialPeers(counts map[pieceset.Set]int) Option {
	return func(c *config) {
		c.initial = make(map[pieceset.Set]int, len(counts))
		for k, v := range counts {
			c.initial[k] = v
		}
	}
}

// generator resolves the configured RNG: an explicit stream wins, else a
// fresh generator from the seed.
func (c *config) generator() *rng.RNG {
	if c.rng != nil {
		return c.rng
	}
	return rng.New(c.seed)
}

// Event classes of the type-count process, in fixed kernel order.
const (
	evArrival = iota
	evSeedTick
	evPeerTick
	evDeparture
	evChurn
)

// Swarm is one sample path of the model's CTMC, advanced event by event on
// the shared kernel. It tracks peers by type only (the chain is
// exchangeable across peers of a type), so memory is O(#occupied types)
// regardless of population, and type selection is O(log #occupied types)
// through the kernel's Fenwick sampler.
type Swarm struct {
	params   model.Params
	policy   Policy
	scenario kernel.Scenario
	r        *rng.RNG
	k        *kernel.Kernel
	full     pieceset.Set

	peers  kernel.Counts[pieceset.Set] // multiset of peer types
	pieces []int                       // pieces[i] = holders of piece i+1

	arrivalTypes   []pieceset.Set
	arrivalWeights []float64
	arrivalPicker  *rng.Picker // prefix-cached λ weights: no per-arrival rescan
	lambdaTotal    float64     // Σ λ_C in sorted type order, cached off the event path

	holdersFn HolderCount // cached method value: no closure alloc per transfer

	stats Stats
}

// New validates the parameters and builds a swarm.
func New(p model.Params, opts ...Option) (*Swarm, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	cfg := config{seed: 1, policy: RandomUseful{}}
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.scenario.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s := &Swarm{
		params:   p,
		policy:   cfg.policy,
		scenario: cfg.scenario,
		r:        cfg.generator(),
		full:     pieceset.Full(p.K),
		pieces:   make([]int, p.K),
	}
	s.holdersFn = s.Holders
	for _, c := range p.ArrivalTypes() {
		s.arrivalTypes = append(s.arrivalTypes, c)
		s.arrivalWeights = append(s.arrivalWeights, p.Lambda[c])
	}
	picker, err := rng.NewPicker(s.arrivalWeights)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s.arrivalPicker = picker
	s.lambdaTotal = picker.Total()
	// Insert initial peers in ascending type order: the Fenwick multiset
	// assigns slots in insertion order, so iterating the map directly would
	// make the slot layout — and with it the realization a seed produces —
	// vary run to run. The hybrid backend rebuilds exact swarms from
	// multi-type snapshots mid-run and relies on this being deterministic.
	initialTypes := make([]pieceset.Set, 0, len(cfg.initial))
	for c := range cfg.initial {
		initialTypes = append(initialTypes, c)
	}
	sort.Slice(initialTypes, func(i, j int) bool { return initialTypes[i] < initialTypes[j] })
	for _, c := range initialTypes {
		count := cfg.initial[c]
		if count < 0 || !c.SubsetOf(s.full) {
			return nil, fmt.Errorf("sim: invalid initial peers %v x %d", c, count)
		}
		if count == 0 {
			continue
		}
		if c == s.full && p.GammaInf() {
			return nil, errors.New("sim: initial peer seeds impossible when γ = ∞")
		}
		s.addPeers(c, count)
	}
	s.k = kernel.New(s.r, s)
	return s, nil
}

// Params returns the model parameters of this swarm.
func (s *Swarm) Params() model.Params { return s.params }

// Now returns the current simulated time.
func (s *Swarm) Now() float64 { return s.k.Now() }

// N returns the current number of peers.
func (s *Swarm) N() int { return s.peers.Total() }

// CountOf returns the number of type-c peers.
func (s *Swarm) CountOf(c pieceset.Set) int { return s.peers.Count(c) }

// PeerSeeds returns x_F, the number of peers holding the full collection.
func (s *Swarm) PeerSeeds() int { return s.peers.Count(s.full) }

// Holders returns the number of peers holding piece p (0 out of range).
func (s *Swarm) Holders(piece int) int {
	if piece < 1 || piece > s.params.K {
		return 0
	}
	return s.pieces[piece-1]
}

// Missing returns the number of peers missing piece p.
func (s *Swarm) Missing(piece int) int { return s.N() - s.Holders(piece) }

// OneClub returns x_{F−{piece}}: the peers holding everything except the
// given piece — the "one club" of the missing-piece syndrome.
func (s *Swarm) OneClub(piece int) int {
	if piece < 1 || piece > s.params.K {
		return 0
	}
	return s.peers.Count(s.full.Without(piece))
}

// Stats returns the event counters so far.
func (s *Swarm) Stats() Stats {
	st := s.stats
	st.Events = s.k.Events()
	return st
}

// MeanPeers returns the time-averaged population since construction (or the
// last ResetOccupancy), the estimator for E[N].
func (s *Swarm) MeanPeers() float64 { return s.k.MeanPopulation() }

// ResetOccupancy restarts the E[N] estimator at the current instant,
// discarding burn-in.
func (s *Swarm) ResetOccupancy() { s.k.ResetOccupancy() }

// SparseCounts returns a copy of the occupied type counts. It allocates a
// fresh map per call; cross-validation loops at large N use
// SparseCountsInto with a reused map instead.
func (s *Swarm) SparseCounts() map[pieceset.Set]int {
	return s.SparseCountsInto(make(map[pieceset.Set]int, s.peers.Occupied()))
}

// SparseCountsInto clears dst, fills it with the occupied type counts, and
// returns it, letting repeated snapshots reuse one map.
func (s *Swarm) SparseCountsInto(dst map[pieceset.Set]int) map[pieceset.Set]int {
	clear(dst)
	s.peers.Each(func(c pieceset.Set, v int) { dst[c] = v })
	return dst
}

// Snapshot returns the dense model.State (for the exact solver and the
// Lyapunov evaluator); it refuses K > 16 where 2^K states stop being dense.
func (s *Swarm) Snapshot() (model.State, error) {
	if s.params.K > 16 {
		return nil, ErrTooManyPieces
	}
	st := model.NewState(s.params.K)
	s.peers.Each(func(c pieceset.Set, v int) { st[int(c)] = v })
	return st, nil
}

// addPeers inserts count peers of type c, maintaining indexes.
func (s *Swarm) addPeers(c pieceset.Set, count int) {
	s.peers.Add(c, count)
	c.ForEach(func(p int) { s.pieces[p-1] += count })
}

// removePeer removes one peer of type c, maintaining indexes.
func (s *Swarm) removePeer(c pieceset.Set) {
	s.peers.Add(c, -1)
	c.ForEach(func(p int) { s.pieces[p-1]-- })
}

// pickPeerType returns the type of a uniformly random peer in
// O(log #occupied types). It must only be called with N ≥ 1; calling it on
// an empty swarm is an invariant violation and panics.
func (s *Swarm) pickPeerType() pieceset.Set {
	c, ok := s.peers.Pick(s.r)
	if !ok {
		panic("sim: pickPeerType on an empty swarm")
	}
	return c
}

// Population implements kernel.Process.
func (s *Swarm) Population() float64 { return float64(s.peers.Total()) }

// Rates implements kernel.Process: the per-class rates of the event race.
// The arrival class races at the thinning bound when a time-varying
// profile is set; Fire rejects the excess.
func (s *Swarm) Rates(buf []float64) []float64 {
	n := s.peers.Total()
	arrival := s.lambdaTotal * s.scenario.ArrivalBound()
	seed := 0.0
	if n > 0 {
		seed = s.params.Us
	}
	peer := s.params.Mu * float64(n)
	dep := 0.0
	if !s.params.GammaInf() {
		dep = s.params.Gamma * float64(s.peers.Count(s.full))
	}
	churn := 0.0
	if s.scenario.Churn > 0 {
		churn = s.scenario.Churn * float64(n-s.peers.Count(s.full))
	}
	return append(buf, arrival, seed, peer, dep, churn)
}

// Fire implements kernel.Process.
func (s *Swarm) Fire(class int) error {
	switch class {
	case evArrival:
		s.stepArrival()
	case evSeedTick:
		s.stepSeedTick()
	case evPeerTick:
		s.stepPeerTick()
	case evDeparture:
		s.stepSeedDeparture()
	case evChurn:
		s.stepChurn()
	default:
		panic(fmt.Sprintf("sim: unknown event class %d", class))
	}
	return nil
}

// Step advances the chain by exactly one event (which may be a no-op
// contact). Time always advances.
func (s *Swarm) Step() error { return s.k.Step() }

// SetTap attaches (nil detaches) a post-event observer tap — typically an
// obs.Set pipeline — to the swarm's kernel. Taps consume no randomness, so
// attaching one never changes the realization a seed produces.
func (s *Swarm) SetTap(t kernel.Tap) { s.k.SetTap(t) }

// stepArrival admits one new peer with type drawn from the λ weights,
// after the scenario's thinning draw for time-varying profiles.
func (s *Swarm) stepArrival() {
	if !s.scenario.AcceptArrival(s.r, s.k.Now()) {
		s.stats.Thinned++
		return
	}
	s.addPeers(s.arrivalTypes[s.arrivalPicker.Pick(s.r)], 1)
	s.stats.Arrivals++
}

// stepSeedTick lets the fixed seed contact a uniform peer and upload one
// useful piece chosen by the policy.
func (s *Swarm) stepSeedTick() {
	target := s.pickPeerType()
	useful := target.Complement(s.params.K)
	if useful.IsEmpty() {
		s.stats.NoOps++ // contacted a peer seed
		return
	}
	s.transfer(target, useful)
}

// stepPeerTick lets a uniform peer contact another uniform peer.
func (s *Swarm) stepPeerTick() {
	uploader := s.pickPeerType()
	target := s.pickPeerType()
	useful := uploader.Minus(target)
	if useful.IsEmpty() {
		s.stats.NoOps++
		return
	}
	s.transfer(target, useful)
}

// transfer moves one target-type peer up by one policy-chosen piece,
// handling γ = ∞ instant departures.
func (s *Swarm) transfer(target, useful pieceset.Set) {
	piece, err := s.policy.SelectPiece(s.r, useful, s.holdersFn)
	if err != nil {
		// Policies never fail on the non-empty sets the callers guarantee.
		panic(fmt.Sprintf("sim: policy failed on non-empty useful set %v: %v", useful, err))
	}
	next := target.With(piece)
	s.removePeer(target)
	if next == s.full && s.params.GammaInf() {
		s.stats.Departures++
	} else {
		s.addPeers(next, 1)
	}
	s.stats.Uploads++
}

// stepSeedDeparture removes one peer seed (γ < ∞ only).
func (s *Swarm) stepSeedDeparture() {
	if s.peers.Count(s.full) == 0 {
		return // round-off fallback fired the class at zero rate
	}
	s.removePeer(s.full)
	s.stats.Departures++
}

// stepChurn removes one uniformly random not-yet-complete peer.
func (s *Swarm) stepChurn() {
	c, ok := s.peers.PickExcluding(s.r, s.full)
	if !ok {
		return // round-off fallback fired the class at zero rate
	}
	s.removePeer(c)
	s.stats.Churned++
}

// RunUntil advances the swarm until simulated time reaches maxTime or the
// population reaches maxPeers (whichever first) and reports which limit
// fired. maxPeers <= 0 disables the population limit. An attached
// stop-watcher ends the run cleanly with StopObserver.
func (s *Swarm) RunUntil(maxTime float64, maxPeers int) (StopReason, error) {
	return s.k.RunUntil(maxTime, maxPeers)
}

// TraceSeries builds the standard trajectory observers for this swarm —
// population, peer seeds, the one-club of the given piece, and the count
// missing it — on a shared bounded time ladder over [start, end] with
// spacing dt. The bound keeps the final event's overshoot past the horizon
// from extending the trace or halving its resolution. Callers compose the
// series into an obs.Set (cmd/p2psim routes them through the engine's
// per-replica observer hook).
func (s *Swarm) TraceSeries(start, end, dt float64, piece int) []*obs.Series {
	capacity := int((end-start)/dt) + 2
	if capacity < 4 {
		capacity = 4
	}
	mk := func(name string, probe obs.Probe) *obs.Series {
		return obs.NewBoundedSeries(name, start, dt, capacity, end, probe)
	}
	return []*obs.Series{
		mk("n", func() float64 { return float64(s.N()) }),
		mk("seeds", func() float64 { return float64(s.PeerSeeds()) }),
		mk("one_club", func() float64 { return float64(s.OneClub(piece)) }),
		mk("missing", func() float64 { return float64(s.Missing(piece)) }),
	}
}

// Rates reports the current aggregate event rates of the exponential
// races; diagnostics and tests use it to compare against the generator.
type Rates struct {
	Arrival   float64 // instantaneous λ_total · profile(t)
	Seed      float64 // U_s when peers are present
	Peer      float64 // µ·n (includes contacts that will be no-ops)
	Departure float64 // γ·x_F (0 when γ = ∞)
	Churn     float64 // δ·(n − x_F) under scenario churn
	Total     float64
}

// CurrentRates returns the instantaneous event rates at the current state
// (for a time-varying profile this is the effective arrival rate at the
// current instant, not the thinning bound the race runs at).
func (s *Swarm) CurrentRates() Rates {
	n := s.peers.Total()
	r := Rates{Arrival: s.lambdaTotal * s.scenario.ArrivalAt(s.k.Now())}
	if n > 0 {
		r.Seed = s.params.Us
	}
	r.Peer = s.params.Mu * float64(n)
	if !s.params.GammaInf() {
		r.Departure = s.params.Gamma * float64(s.peers.Count(s.full))
	}
	if s.scenario.Churn > 0 {
		r.Churn = s.scenario.Churn * float64(n-s.peers.Count(s.full))
	}
	r.Total = r.Arrival + r.Seed + r.Peer + r.Departure + r.Churn
	return r
}
