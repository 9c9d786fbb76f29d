// Package peersim is a peer-granular simulator of the same CTMC as
// internal/sim: it tracks every peer individually, which makes per-peer
// observables — download times, total sojourn times, uploads contributed —
// measurable. The paper's model is exchangeable across peers of a type, so
// the two simulators have identical laws for the type-count process; tests
// and experiment tables exploit that to cross-validate, and Little's law
// (E[N] = λ·E[T]) ties the per-peer view back to occupancy.
//
// The price of the peer-granular view is O(population) memory; internal/sim
// remains the tool for instability studies where N diverges. Both run on
// the shared CTMC event kernel (internal/kernel); peersim's uniform peer
// selection is O(1) array indexing, so it needs no Fenwick sampler.
package peersim

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dist"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pieceset"
	"repro/internal/rng"
	"repro/internal/sim"
)

// ErrNoProgress reports a zero total event rate (the kernel's sentinel).
var ErrNoProgress = kernel.ErrNoProgress

// notCompleted marks a peer that has not yet collected all pieces.
const notCompleted = -1

// peerMeta is the cold per-peer bookkeeping, kept out of the contact path's
// cache footprint: it is touched on arrival, completion, and departure only.
// The hot state — the peer's piece set — lives in its own flat array.
type peerMeta struct {
	tag       uint64 // sojourn-tracker slab tag
	arrived   float64
	completed float64 // notCompleted until the last piece arrives
	uploads   int32
	seedPos   int32 // index into seedIdx, or -1
}

// Option configures the swarm.
type Option func(*config)

type config struct {
	seed     uint64
	rng      *rng.RNG
	policy   sim.Policy
	scenario kernel.Scenario
	initial  map[pieceset.Set]int
}

// WithSeed sets the RNG seed (default 1).
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithRNG hands the swarm a pre-seeded generator, overriding WithSeed. The
// parallel engine uses this to drive each replica from an independent
// stream split off a base seed; the swarm takes ownership of the generator.
func WithRNG(r *rng.RNG) Option { return func(c *config) { c.rng = r } }

// generator resolves the configured RNG: an explicit stream wins, else a
// fresh generator from the seed.
func (c *config) generator() *rng.RNG {
	if c.rng != nil {
		return c.rng
	}
	return rng.New(c.seed)
}

// WithPolicy sets the piece-selection policy (default random useful).
func WithPolicy(p sim.Policy) Option { return func(c *config) { c.policy = p } }

// WithScenario overlays workload dynamics: a time-varying arrival profile
// (thinned) and churn of not-yet-complete peers. Churned peers count as
// departures for the sojourn statistics (they were in the system), but
// never contribute download or dwell times.
func WithScenario(s kernel.Scenario) Option { return func(c *config) { c.scenario = s } }

// WithInitialPeers seeds the swarm with pre-existing peers by type at time
// zero (they count as arrivals for the sojourn tracker), mirroring
// sim.WithInitialPeers; large-N benchmarks use it to reach steady state
// without replaying the growth phase. The map is copied.
func WithInitialPeers(counts map[pieceset.Set]int) Option {
	return func(c *config) {
		c.initial = make(map[pieceset.Set]int, len(counts))
		for k, v := range counts {
			c.initial[k] = v
		}
	}
}

// Event classes, in fixed kernel order.
const (
	evArrival = iota
	evSeedTick
	evPeerTick
	evDeparture
	evChurn
)

// Swarm is a peer-granular sample path of the model.
type Swarm struct {
	params   model.Params
	policy   sim.Policy
	scenario kernel.Scenario
	r        *rng.RNG
	k        *kernel.Kernel
	full     pieceset.Set

	// Peer state is laid out structure-of-arrays: sets is the only array
	// the contact path reads (one 32-bit word per peer, so a million-peer
	// swarm's hot state is ~4 MB and largely cache-resident), while meta
	// holds the cold bookkeeping in a parallel array. Swap-deletes move
	// both rows.
	sets    []pieceset.Set
	meta    []peerMeta
	seedIdx []int // indices of completed peers (peer seeds)
	pieces  []int // holders per piece

	arrivalTypes   []pieceset.Set
	arrivalWeights []float64
	arrivalPicker  *rng.Picker // prefix-cached λ weights: no per-arrival rescan
	lambdaTotal    float64     // Σ λ_C in sorted type order, cached off the event path

	holdersFn sim.HolderCount // cached method value: no closure alloc per transfer

	// Departed-peer statistics. Sojourn times (arrival → departure) route
	// through the observation layer's tag-based tracker, which also carries
	// streaming quantiles and the Little's-law view (L, λ, W). The tracker
	// is always on — unlike the gated kernel tap — because per-peer pairing
	// must start at the first arrival to be offered later. It runs in the
	// tracker's slab mode (Admit/Release), so the always-on pairing costs
	// no allocation past the peak population.
	sojourn       *obs.Sojourn
	downloadTimes dist.Summary // arrival → completion
	dwellTimes    dist.Summary // completion → departure (γ < ∞ only)
	uploadsMade   dist.Summary // uploads contributed per departed peer

	departed  int
	abandoned int
	thinned   uint64
}

// New validates parameters and builds a swarm.
func New(p model.Params, opts ...Option) (*Swarm, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("peersim: %w", err)
	}
	cfg := config{seed: 1, policy: sim.RandomUseful{}}
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.scenario.Validate(); err != nil {
		return nil, fmt.Errorf("peersim: %w", err)
	}
	s := &Swarm{
		params:   p,
		policy:   cfg.policy,
		scenario: cfg.scenario,
		r:        cfg.generator(),
		full:     pieceset.Full(p.K),
		pieces:   make([]int, p.K),
		sojourn:  obs.NewSojourn("sojourn"),
	}
	s.holdersFn = s.Holders
	for _, c := range p.ArrivalTypes() {
		s.arrivalTypes = append(s.arrivalTypes, c)
		s.arrivalWeights = append(s.arrivalWeights, p.Lambda[c])
	}
	picker, err := rng.NewPicker(s.arrivalWeights)
	if err != nil {
		return nil, fmt.Errorf("peersim: %w", err)
	}
	s.arrivalPicker = picker
	s.lambdaTotal = picker.Total()
	// Insert initial peers in sorted type order: peer indices are state
	// here (uniform contact picks by index), so map iteration order must
	// not leak into the realization.
	initialTypes := make([]pieceset.Set, 0, len(cfg.initial))
	for c := range cfg.initial {
		initialTypes = append(initialTypes, c)
	}
	sort.Slice(initialTypes, func(i, j int) bool { return initialTypes[i] < initialTypes[j] })
	for _, c := range initialTypes {
		count := cfg.initial[c]
		if count < 0 || !c.SubsetOf(s.full) {
			return nil, fmt.Errorf("peersim: invalid initial peers %v x %d", c, count)
		}
		if c == s.full && p.GammaInf() {
			return nil, errors.New("peersim: initial peer seeds impossible when γ = ∞")
		}
		for i := 0; i < count; i++ {
			s.addPeer(c)
		}
	}
	s.k = kernel.New(s.r, s)
	return s, nil
}

// Now returns the simulated time.
func (s *Swarm) Now() float64 { return s.k.Now() }

// now is Now tolerating the construction window before the kernel exists
// (initial peers arrive at time zero).
func (s *Swarm) now() float64 {
	if s.k == nil {
		return 0
	}
	return s.k.Now()
}

// N returns the population.
func (s *Swarm) N() int { return len(s.sets) }

// PeerSeeds returns the number of completed peers still in the system.
func (s *Swarm) PeerSeeds() int { return len(s.seedIdx) }

// Departed returns the number of peers that have left (including churned).
func (s *Swarm) Departed() int { return s.departed }

// Abandoned returns the number of peers lost to scenario churn.
func (s *Swarm) Abandoned() int { return s.abandoned }

// Thinned returns the number of arrival candidates rejected by a
// time-varying arrival profile.
func (s *Swarm) Thinned() uint64 { return s.thinned }

// Holders returns the number of peers holding the piece.
func (s *Swarm) Holders(piece int) int {
	if piece < 1 || piece > s.params.K {
		return 0
	}
	return s.pieces[piece-1]
}

// MeanPeers returns the time-averaged population.
func (s *Swarm) MeanPeers() float64 { return s.k.MeanPopulation() }

// DownloadTimes returns statistics of arrival→completion times over
// departed peers. (Peers that arrived with the full file contribute zero.)
func (s *Swarm) DownloadTimes() *dist.Summary { return &s.downloadTimes }

// DwellTimes returns statistics of completion→departure dwell times.
func (s *Swarm) DwellTimes() *dist.Summary { return &s.dwellTimes }

// SojournTimes returns statistics of total time-in-system of departed
// peers, the E[T] of Little's law.
func (s *Swarm) SojournTimes() *dist.Summary { return s.sojourn.Durations() }

// Sojourn returns the swarm's tag-based sojourn tracker (internal/obs):
// Welford durations, streaming P² quantiles, and the Little's-law view
// (L, λ, W) over the arrival→departure stream. Add it to the replica's
// observer set to route its scalars into engine records.
func (s *Swarm) Sojourn() *obs.Sojourn { return s.sojourn }

// UploadsPerPeer returns statistics of uploads contributed per departed
// peer.
func (s *Swarm) UploadsPerPeer() *dist.Summary { return &s.uploadsMade }

// TypeCounts aggregates the live peers by type, for cross-validation with
// the type-count simulator. It allocates a fresh map per call; repeated
// snapshots at large N use TypeCountsInto with a reused map.
func (s *Swarm) TypeCounts() map[pieceset.Set]int {
	return s.TypeCountsInto(make(map[pieceset.Set]int))
}

// TypeCountsInto clears dst, fills it with the live per-type counts, and
// returns it.
func (s *Swarm) TypeCountsInto(dst map[pieceset.Set]int) map[pieceset.Set]int {
	clear(dst)
	for _, c := range s.sets {
		dst[c]++
	}
	return dst
}

// addPeer admits a peer of the given type at the current time, registering
// its arrival with the sojourn tracker under a slab tag.
func (s *Swarm) addPeer(c pieceset.Set) {
	now := s.now()
	m := peerMeta{tag: s.sojourn.Admit(now), arrived: now, completed: notCompleted, seedPos: -1}
	if c == s.full {
		m.completed = now
		m.seedPos = int32(len(s.seedIdx))
		s.seedIdx = append(s.seedIdx, len(s.sets))
	}
	s.sets = append(s.sets, c)
	s.meta = append(s.meta, m)
	c.ForEach(func(pc int) { s.pieces[pc-1]++ })
}

// removePeer removes peer i with swap-delete, recording its statistics.
func (s *Swarm) removePeer(i int) {
	m := s.meta[i]
	s.departed++
	s.sojourn.Release(m.tag, s.k.Now())
	if m.completed != notCompleted {
		s.downloadTimes.Add(m.completed - m.arrived)
		if !s.params.GammaInf() {
			s.dwellTimes.Add(s.k.Now() - m.completed)
		}
	}
	s.uploadsMade.Add(float64(m.uploads))
	s.sets[i].ForEach(func(pc int) { s.pieces[pc-1]-- })
	if m.seedPos >= 0 {
		s.unregisterSeed(int(m.seedPos))
	}
	last := len(s.sets) - 1
	if i != last {
		s.sets[i] = s.sets[last]
		s.meta[i] = s.meta[last]
		if s.meta[i].seedPos >= 0 {
			s.seedIdx[s.meta[i].seedPos] = i
		}
	}
	s.sets = s.sets[:last]
	s.meta = s.meta[:last]
}

// unregisterSeed removes entry pos from seedIdx with swap-delete.
func (s *Swarm) unregisterSeed(pos int) {
	last := len(s.seedIdx) - 1
	if pos != last {
		s.seedIdx[pos] = s.seedIdx[last]
		s.meta[s.seedIdx[pos]].seedPos = int32(pos)
	}
	s.seedIdx = s.seedIdx[:last]
}

// Population implements kernel.Process.
func (s *Swarm) Population() float64 { return float64(len(s.sets)) }

// Rates implements kernel.Process.
func (s *Swarm) Rates(buf []float64) []float64 {
	n := len(s.sets)
	arrival := s.lambdaTotal * s.scenario.ArrivalBound()
	seed := 0.0
	if n > 0 {
		seed = s.params.Us
	}
	peerRate := s.params.Mu * float64(n)
	dep := 0.0
	if !s.params.GammaInf() {
		dep = s.params.Gamma * float64(len(s.seedIdx))
	}
	churn := 0.0
	if s.scenario.Churn > 0 {
		churn = s.scenario.Churn * float64(n-len(s.seedIdx))
	}
	return append(buf, arrival, seed, peerRate, dep, churn)
}

// Fire implements kernel.Process.
func (s *Swarm) Fire(class int) error {
	n := len(s.sets)
	switch class {
	case evArrival:
		if !s.scenario.AcceptArrival(s.r, s.k.Now()) {
			s.thinned++
			return nil
		}
		s.addPeer(s.arrivalTypes[s.arrivalPicker.Pick(s.r)])
	case evSeedTick:
		target := s.r.Intn(n)
		useful := s.sets[target].Complement(s.params.K)
		if !useful.IsEmpty() {
			s.deliver(target, -1, useful)
		}
	case evPeerTick:
		uploader := s.r.Intn(n)
		target := s.r.Intn(n)
		if uploader != target {
			useful := s.sets[uploader].Minus(s.sets[target])
			if !useful.IsEmpty() {
				s.deliver(target, uploader, useful)
			}
		}
	case evDeparture:
		if len(s.seedIdx) > 0 {
			s.removePeer(s.seedIdx[s.r.Intn(len(s.seedIdx))])
		}
	case evChurn:
		s.stepChurn()
	default:
		panic(fmt.Sprintf("peersim: unknown event class %d", class))
	}
	return nil
}

// stepChurn removes one uniformly random not-yet-complete peer, by
// rejection against the seed set (the churn rate is proportional to the
// incomplete count, so a candidate exists whenever the class fires).
func (s *Swarm) stepChurn() {
	if len(s.sets) == len(s.seedIdx) {
		return // round-off fallback fired the class at zero rate
	}
	for {
		i := s.r.Intn(len(s.sets))
		if s.meta[i].completed == notCompleted {
			s.removePeer(i)
			s.abandoned++
			return
		}
	}
}

// Step advances one event.
func (s *Swarm) Step() error { return s.k.Step() }

// SetTap attaches (nil detaches) a post-event observer tap — typically an
// obs.Set pipeline — to the swarm's kernel.
func (s *Swarm) SetTap(t kernel.Tap) { s.k.SetTap(t) }

// deliver uploads one policy-chosen piece to peer `target`; uploader is the
// index of the uploading peer or -1 for the fixed seed.
func (s *Swarm) deliver(target, uploader int, useful pieceset.Set) {
	piece, err := s.policy.SelectPiece(s.r, useful, s.holdersFn)
	if err != nil {
		panic(fmt.Sprintf("peersim: policy failed on non-empty useful set %v: %v", useful, err))
	}
	if uploader >= 0 {
		s.meta[uploader].uploads++
	}
	s.sets[target] = s.sets[target].With(piece)
	s.pieces[piece-1]++
	if s.sets[target] != s.full {
		return
	}
	s.meta[target].completed = s.k.Now()
	if s.params.GammaInf() {
		s.removePeer(target)
		return
	}
	s.meta[target].seedPos = int32(len(s.seedIdx))
	s.seedIdx = append(s.seedIdx, target)
}

// RunUntil advances until the time or population limit fires. An attached
// stop-watcher ends the run cleanly (nil error); inspect the watch for the
// hitting time.
func (s *Swarm) RunUntil(maxTime float64, maxPeers int) error {
	_, err := s.k.RunUntil(maxTime, maxPeers)
	return err
}
