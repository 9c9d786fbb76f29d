package sim

import (
	"errors"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/pieceset"
	"repro/internal/rng"
)

// RecoverySwarm simulates the Section VIII-C variant of the model: after an
// unsuccessful contact (no useful piece to transfer) a clock runs faster by
// a factor η > 1 until its next tick; a successful tick restores the normal
// rate. The variant is still a CTMC — the state just carries one extra bit
// per peer ("fast") — and this simulator tracks counts over (type, speed)
// pairs exactly, as a kernel process: uniform peer selection goes through
// the Fenwick count sampler and tick-rate-weighted uploader selection
// through the Fenwick weight sampler, both O(log #occupied keys).
// η = 1 recovers the original model, which tests exploit.
type RecoverySwarm struct {
	params   model.Params
	eta      float64
	policy   Policy
	scenario kernel.Scenario
	r        *rng.RNG
	k        *kernel.Kernel
	full     pieceset.Set

	peers    kernel.Counts[speedType]   // multiset of (type, speed) keys
	ticks    kernel.Weighted[speedType] // contact-clock rate per key
	pieces   []int
	seedFast bool // fixed seed's clock state

	arrivalTypes   []pieceset.Set
	arrivalWeights []float64
	arrivalPicker  *rng.Picker // prefix-cached λ weights: no per-arrival rescan
	lambdaTotal    float64     // Σ λ_C in sorted type order, cached off the event path

	holdersFn HolderCount // cached method value: no closure alloc per upload

	stats Stats
}

// speedType is a peer type plus its clock speed state.
type speedType struct {
	c    pieceset.Set
	fast bool
}

// Recovery event classes, in fixed kernel order.
const (
	revArrival = iota
	revSeedTick
	revPeerTick
	revDeparture
	revChurn
)

// NewRecovery builds a fast-recovery swarm with speed-up factor eta ≥ 1.
func NewRecovery(p model.Params, eta float64, opts ...Option) (*RecoverySwarm, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if !(eta >= 1) {
		return nil, errors.New("sim: recovery factor must be >= 1")
	}
	cfg := config{seed: 1, policy: RandomUseful{}}
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.scenario.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s := &RecoverySwarm{
		params:   p,
		eta:      eta,
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
	err = p.AddInitial(cfg.initial, func(c pieceset.Set, count int) {
		for i := 0; i < count; i++ {
			s.add(speedType{c: c})
		}
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s.k = kernel.New(s.r, s)
	return s, nil
}

// Now returns the simulated time.
func (s *RecoverySwarm) Now() float64 { return s.k.Now() }

// N returns the population.
func (s *RecoverySwarm) N() int { return s.peers.Total() }

// MeanPeers returns the time-averaged population.
func (s *RecoverySwarm) MeanPeers() float64 { return s.k.MeanPopulation() }

// ResetOccupancy restarts the E[N] estimator at the current instant.
func (s *RecoverySwarm) ResetOccupancy() { s.k.ResetOccupancy() }

// Stats returns the event counters.
func (s *RecoverySwarm) Stats() Stats {
	st := s.stats
	st.Events = s.k.Events()
	return st
}

// FastPeers returns how many peers currently run sped-up clocks.
func (s *RecoverySwarm) FastPeers() int {
	total := 0
	s.peers.Each(func(k speedType, v int) {
		if k.fast {
			total += v
		}
	})
	return total
}

// OneClub returns x_{F−{piece}} summed over both speed states.
func (s *RecoverySwarm) OneClub(piece int) int {
	if piece < 1 || piece > s.params.K {
		return 0
	}
	c := s.full.Without(piece)
	return s.peers.Count(speedType{c: c}) + s.peers.Count(speedType{c: c, fast: true})
}

// Holders returns the number of peers holding the piece.
func (s *RecoverySwarm) Holders(piece int) int {
	if piece < 1 || piece > s.params.K {
		return 0
	}
	return s.pieces[piece-1]
}

// CountOf returns the peers of a given piece-set type (both speeds).
func (s *RecoverySwarm) CountOf(c pieceset.Set) int {
	return s.peers.Count(speedType{c: c}) + s.peers.Count(speedType{c: c, fast: true})
}

func (s *RecoverySwarm) add(k speedType) {
	s.peers.Add(k, 1)
	s.ticks.Set(k, float64(s.peers.Count(k))*s.tickWeight(k))
	k.c.ForEach(func(p int) { s.pieces[p-1]++ })
}

func (s *RecoverySwarm) remove(k speedType) {
	s.peers.Add(k, -1)
	s.ticks.Set(k, float64(s.peers.Count(k))*s.tickWeight(k))
	k.c.ForEach(func(p int) { s.pieces[p-1]-- })
}

// tickWeight is a peer group's contact-clock rate.
func (s *RecoverySwarm) tickWeight(k speedType) float64 {
	if k.fast {
		return s.params.Mu * s.eta
	}
	return s.params.Mu
}

// pickUniform returns a uniformly random peer's key (N ≥ 1 required).
func (s *RecoverySwarm) pickUniform() speedType {
	k, ok := s.peers.Pick(s.r)
	if !ok {
		panic("sim: pickUniform on an empty recovery swarm")
	}
	return k
}

// pickByTickRate returns a peer key weighted by clock rate.
func (s *RecoverySwarm) pickByTickRate() speedType {
	k, ok := s.ticks.Pick(s.r)
	if !ok {
		panic("sim: pickByTickRate with zero total tick rate")
	}
	return k
}

// Population implements kernel.Process.
func (s *RecoverySwarm) Population() float64 { return float64(s.peers.Total()) }

// Rates implements kernel.Process.
func (s *RecoverySwarm) Rates(buf []float64) []float64 {
	n := s.peers.Total()
	arrival := s.lambdaTotal * s.scenario.ArrivalBound()
	seed := 0.0
	if n > 0 {
		seed = s.params.Us
		if s.seedFast {
			seed *= s.eta
		}
	}
	peer := s.ticks.Total()
	dep := 0.0
	nSeeds := s.seedCount()
	if !s.params.GammaInf() {
		dep = s.params.Gamma * float64(nSeeds)
	}
	churn := 0.0
	if s.scenario.Churn > 0 {
		churn = s.scenario.Churn * float64(n-nSeeds)
	}
	return append(buf, arrival, seed, peer, dep, churn)
}

func (s *RecoverySwarm) seedCount() int {
	return s.peers.Count(speedType{c: s.full}) + s.peers.Count(speedType{c: s.full, fast: true})
}

// Fire implements kernel.Process.
func (s *RecoverySwarm) Fire(class int) error {
	switch class {
	case revArrival:
		s.stepArrival()
	case revSeedTick:
		s.seedTick()
	case revPeerTick:
		s.peerTick()
	case revDeparture:
		s.stepDeparture()
	case revChurn:
		s.stepChurn()
	default:
		panic(fmt.Sprintf("sim: unknown recovery event class %d", class))
	}
	return nil
}

// Step advances one event.
func (s *RecoverySwarm) Step() error { return s.k.Step() }

// SetTap attaches (nil detaches) a post-event observer tap — typically an
// obs.Set pipeline — to the swarm's kernel.
func (s *RecoverySwarm) SetTap(t kernel.Tap) { s.k.SetTap(t) }

func (s *RecoverySwarm) stepArrival() {
	if !s.scenario.AcceptArrival(s.r, s.k.Now()) {
		s.stats.Thinned++
		return
	}
	s.add(speedType{c: s.arrivalTypes[s.arrivalPicker.Pick(s.r)]})
	s.stats.Arrivals++
}

func (s *RecoverySwarm) stepDeparture() {
	// Remove a random peer seed, uniform over both speed states.
	fullSlow, fullFast := speedType{c: s.full}, speedType{c: s.full, fast: true}
	nSeeds := s.peers.Count(fullSlow) + s.peers.Count(fullFast)
	if nSeeds == 0 {
		return // round-off fallback fired the class at zero rate
	}
	k := fullSlow
	if s.r.Intn(nSeeds) >= s.peers.Count(fullSlow) {
		k = fullFast
	}
	s.remove(k)
	s.stats.Departures++
}

// stepChurn removes one uniformly random not-yet-complete peer.
func (s *RecoverySwarm) stepChurn() {
	k, ok := s.peers.PickExcluding(s.r, speedType{c: s.full}, speedType{c: s.full, fast: true})
	if !ok {
		return // round-off fallback fired the class at zero rate
	}
	s.remove(k)
	s.stats.Churned++
}

func (s *RecoverySwarm) seedTick() {
	target := s.pickUniform()
	useful := target.c.Complement(s.params.K)
	if useful.IsEmpty() {
		s.seedFast = true
		s.stats.NoOps++
		return
	}
	s.seedFast = false
	s.upload(target, useful)
}

func (s *RecoverySwarm) peerTick() {
	uploader := s.pickByTickRate()
	target := s.pickUniform()
	useful := uploader.c.Minus(target.c)
	if useful.IsEmpty() {
		// Unsuccessful: the uploader's clock speeds up.
		if !uploader.fast {
			s.remove(uploader)
			s.add(speedType{c: uploader.c, fast: true})
		}
		s.stats.NoOps++
		return
	}
	// Successful: the uploader's clock returns to normal speed.
	if uploader.fast {
		s.remove(uploader)
		s.add(speedType{c: uploader.c})
		if uploader.c == target.c && s.peers.Count(target) == 0 {
			// The uploader was the only peer left under the target's exact
			// key; re-read the target from its slow twin.
			target = speedType{c: target.c}
		}
	}
	s.upload(target, useful)
}

// upload moves one target peer up a piece, preserving the target's own
// clock-speed state (its clock did not tick).
func (s *RecoverySwarm) upload(target speedType, useful pieceset.Set) {
	piece, err := s.policy.SelectPiece(s.r, useful, s.holdersFn)
	if err != nil {
		panic(fmt.Sprintf("sim: policy failed on non-empty useful set %v: %v", useful, err))
	}
	if s.peers.Count(target) == 0 {
		// Defensive: the target key vanished during uploader state churn.
		alt := speedType{c: target.c, fast: !target.fast}
		if s.peers.Count(alt) == 0 {
			return
		}
		target = alt
	}
	next := target.c.With(piece)
	s.remove(target)
	if next == s.full && s.params.GammaInf() {
		s.stats.Departures++
	} else {
		s.add(speedType{c: next, fast: target.fast})
	}
	s.stats.Uploads++
}

// RunUntil advances until time or population limits are hit; an attached
// stop-watcher ends the run cleanly with StopObserver.
func (s *RecoverySwarm) RunUntil(maxTime float64, maxPeers int) (StopReason, error) {
	return s.k.RunUntil(maxTime, maxPeers)
}
