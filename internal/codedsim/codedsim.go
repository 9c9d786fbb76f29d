// Package codedsim simulates the network-coded variant of the model
// (Section VIII-B / Theorem 15): peers hold subspaces of F_q^K, uploaders
// transmit uniformly random linear combinations of their coded pieces, and
// a transfer is useful exactly when the received coding vector falls
// outside the receiver's span. The simulator is the coded analogue of
// internal/sim: it runs on the shared CTMC event kernel, with peers
// grouped by canonical subspace and uniform peer selection through the
// kernel's Fenwick sampler in O(log #occupied subspaces).
package codedsim

import (
	"errors"
	"fmt"

	"repro/internal/gf"
	"repro/internal/kernel"
	"repro/internal/rng"
	"repro/internal/stability"
)

// ErrNoProgress reports a zero total event rate (the kernel's sentinel).
var ErrNoProgress = kernel.ErrNoProgress

// Option configures a Swarm.
type Option func(*config)

type config struct {
	seed           uint64
	rng            *rng.RNG
	randomGiftRate float64
	initial        []initialGroup
}

// generator resolves the configured RNG: an explicit stream wins, else a
// fresh generator from the seed.
func (c *config) generator() *rng.RNG {
	if c.rng != nil {
		return c.rng
	}
	return rng.New(c.seed)
}

type initialGroup struct {
	sub   *gf.Subspace
	count int
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

// WithRandomGiftRate adds a Poisson arrival stream at the given rate whose
// peers hold the span of one uniformly random vector of F_q^K — the paper's
// "one random coded piece on arrival" gift model. A zero draw (probability
// q^{−K}) arrives with nothing, exactly as the paper notes.
func WithRandomGiftRate(rate float64) Option {
	return func(c *config) { c.randomGiftRate = rate }
}

// WithInitialPeers seeds the swarm with count peers holding the given
// subspace.
func WithInitialPeers(sub *gf.Subspace, count int) Option {
	return func(c *config) {
		c.initial = append(c.initial, initialGroup{sub: sub, count: count})
	}
}

// Stats counts processed events.
type Stats struct {
	Events     uint64
	Arrivals   uint64
	Departures uint64
	Uploads    uint64 // innovative (useful) transfers
	NoOps      uint64 // non-innovative contacts
}

// Event classes, in fixed kernel order.
const (
	evArrival = iota
	evSeedTick
	evPeerTick
	evDeparture
)

// Swarm is one sample path of the coded system's CTMC, with peers grouped
// by canonical subspace.
//
// Groups are interned: each distinct live subspace gets a dense int id on
// first sight, the multiset of peers runs over ids, and ids of dead groups
// recycle through a LIFO free list. Steady-state events (arrivals of preset
// types, departures, non-innovative contacts) touch no keys and no maps. An
// innovative transfer builds the extended basis and its canonical key in
// scratch and looks the key up without allocating; only a key not live at
// the time allocates its subspace and key string.
type Swarm struct {
	params stability.CodedParams
	r      *rng.RNG
	k      *kernel.Kernel

	subs   []*gf.Subspace     // id → subspace (nil when the id is free)
	keys   []string           // id → canonical key, for idOf upkeep
	perm   []bool             // id → never recycled (arrival types, full)
	idOf   map[string]int     // canonical key → id of a live or permanent group
	freeID []int              // LIFO recycled ids
	counts kernel.Counts[int] // multiset of peers over group ids
	nFull  int

	arrivalWeights []float64   // per params.Arrivals, plus random-gift stream
	arrivalIDs     []int       // permanent id per preset arrival stream
	arrivalPicker  *rng.Picker // prefix-cached weights: no per-arrival rescan
	fullID         int         // permanent id of the full subspace
	lambdaTotal    float64     // gift + Σ arrival rates, cached off the event path
	randomGiftRate float64

	vbuf    gf.Vec        // the coded piece in flight (drawn or combined into)
	scratch gf.Vec        // ContainsBuf elimination workspace
	ext     *gf.Extension // the target's subspace extended by an innovative piece
	keyBuf  []byte        // canonical-key workspace for intern

	stats Stats
}

// New validates parameters and builds a coded swarm.
func New(p stability.CodedParams, opts ...Option) (*Swarm, error) {
	cfg := config{seed: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := validate(p, cfg); err != nil {
		return nil, err
	}
	s := &Swarm{
		params:         p,
		r:              cfg.generator(),
		idOf:           make(map[string]int),
		randomGiftRate: cfg.randomGiftRate,
		vbuf:           make(gf.Vec, p.K),
		scratch:        make(gf.Vec, p.K),
		ext:            gf.NewExtension(p.Field, p.K),
	}
	// Cache the total arrival rate in the exact summation order Rates used
	// to compute per event, so the cached value is bit-identical.
	s.lambdaTotal = s.randomGiftRate
	for _, a := range p.Arrivals {
		s.arrivalWeights = append(s.arrivalWeights, a.Rate)
		s.lambdaTotal += a.Rate
	}
	if cfg.randomGiftRate > 0 {
		s.arrivalWeights = append(s.arrivalWeights, cfg.randomGiftRate)
	}
	picker, err := rng.NewPicker(s.arrivalWeights)
	if err != nil {
		return nil, fmt.Errorf("codedsim: %w", err)
	}
	s.arrivalPicker = picker
	// Pre-intern the preset arrival types and the full subspace as permanent
	// groups: steady-state arrivals and departures then resolve their group
	// id with zero lookups.
	for _, a := range p.Arrivals {
		s.arrivalIDs = append(s.arrivalIDs, s.intern(a.V, true))
	}
	s.fullID = s.intern(gf.FullSubspace(p.Field, p.K), true)
	for _, ig := range cfg.initial {
		id := s.intern(ig.sub, true)
		for i := 0; i < ig.count; i++ {
			s.addID(id)
		}
	}
	s.k = kernel.New(s.r, s)
	return s, nil
}

// intern resolves a subspace to its dense group id, allocating one on first
// sight. Permanent ids (arrival types, the full subspace, initial groups)
// survive group death so the hot paths that hold them never re-intern.
func (s *Swarm) intern(sub *gf.Subspace, permanent bool) int {
	s.keyBuf = sub.AppendKey(s.keyBuf[:0])
	if id, ok := s.idOf[string(s.keyBuf)]; ok {
		if permanent {
			s.perm[id] = true
		}
		return id
	}
	return s.newGroup(sub, s.keyBuf, permanent)
}

// newGroup gives a subspace whose key is not live an id, reusing the most
// recently freed one first.
func (s *Swarm) newGroup(sub *gf.Subspace, key []byte, permanent bool) int {
	k := string(key)
	var id int
	if n := len(s.freeID); n > 0 {
		id = s.freeID[n-1]
		s.freeID = s.freeID[:n-1]
		s.subs[id], s.keys[id], s.perm[id] = sub, k, permanent
	} else {
		id = len(s.subs)
		s.subs = append(s.subs, sub)
		s.keys = append(s.keys, k)
		s.perm = append(s.perm, permanent)
	}
	s.idOf[k] = id
	return id
}

func validate(p stability.CodedParams, cfg config) error {
	// The stability validator requires a positive total arrival rate from
	// p.Arrivals alone; permit the rate to come from the random-gift stream
	// instead by padding validation when needed.
	if err := p.Validate(); err != nil {
		if cfg.randomGiftRate <= 0 {
			return fmt.Errorf("codedsim: %w", err)
		}
		padded := p
		padded.Arrivals = append([]stability.CodedArrival{
			{V: gf.ZeroSubspace(p.Field, p.K), Rate: cfg.randomGiftRate},
		}, p.Arrivals...)
		if err := padded.Validate(); err != nil {
			return fmt.Errorf("codedsim: %w", err)
		}
	}
	if cfg.randomGiftRate < 0 {
		return errors.New("codedsim: random gift rate must be non-negative")
	}
	for _, ig := range cfg.initial {
		if ig.sub == nil || ig.sub.Ambient() != p.K {
			return errors.New("codedsim: initial subspace has wrong ambient dimension")
		}
		if ig.count < 0 {
			return errors.New("codedsim: negative initial count")
		}
		if ig.sub.IsFull() && p.GammaInf() {
			return errors.New("codedsim: initial full peers impossible when γ = ∞")
		}
	}
	return nil
}

// Now returns the simulated time.
func (s *Swarm) Now() float64 { return s.k.Now() }

// N returns the population.
func (s *Swarm) N() int { return s.counts.Total() }

// FullPeers returns the number of peers that can decode (dim = K).
func (s *Swarm) FullPeers() int { return s.nFull }

// Stats returns the event counters.
func (s *Swarm) Stats() Stats {
	st := s.stats
	st.Events = s.k.Events()
	return st
}

// MeanPeers returns the time-averaged population.
func (s *Swarm) MeanPeers() float64 { return s.k.MeanPopulation() }

// ResetOccupancy restarts the E[N] estimator at the current instant.
func (s *Swarm) ResetOccupancy() { s.k.ResetOccupancy() }

// DimCounts returns the number of peers holding each subspace dimension,
// indexed 0..K.
func (s *Swarm) DimCounts() []int {
	dims := make([]int, s.params.K+1)
	s.counts.Each(func(id int, n int) {
		dims[s.subs[id].Dim()] += n
	})
	return dims
}

// addID inserts one peer into the group with the given id.
func (s *Swarm) addID(id int) {
	s.counts.Add(id, 1)
	if s.subs[id].IsFull() {
		s.nFull++
	}
}

// removeID removes one peer from the group; a non-permanent group that
// empties gives its id back to the free list.
func (s *Swarm) removeID(id int) {
	s.counts.Add(id, -1)
	if s.subs[id].IsFull() {
		s.nFull--
	}
	if s.counts.Count(id) == 0 && !s.perm[id] {
		delete(s.idOf, s.keys[id])
		s.subs[id] = nil
		s.keys[id] = ""
		s.freeID = append(s.freeID, id)
	}
}

// pickUniform returns a uniformly random peer's group id in
// O(log #occupied groups). N ≥ 1 is required; an empty swarm panics.
func (s *Swarm) pickUniform() int {
	id, ok := s.counts.Pick(s.r)
	if !ok {
		panic("codedsim: pickUniform on an empty swarm")
	}
	return id
}

// Population implements kernel.Process.
func (s *Swarm) Population() float64 { return float64(s.counts.Total()) }

// Rates implements kernel.Process.
func (s *Swarm) Rates(buf []float64) []float64 {
	n := s.counts.Total()
	lambdaTotal := s.lambdaTotal
	seed := 0.0
	if n > 0 {
		seed = s.params.Us
	}
	peer := s.params.Mu * float64(n)
	dep := 0.0
	if !s.params.GammaInf() {
		dep = s.params.Gamma * float64(s.nFull)
	}
	return append(buf, lambdaTotal, seed, peer, dep)
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
		s.stepDeparture()
	default:
		panic(fmt.Sprintf("codedsim: unknown event class %d", class))
	}
	return nil
}

// Step advances the chain by one event.
func (s *Swarm) Step() error { return s.k.Step() }

// SetTap attaches (nil detaches) a post-event observer tap — typically an
// obs.Set pipeline — to the swarm's kernel.
func (s *Swarm) SetTap(t kernel.Tap) { s.k.SetTap(t) }

// Halted reports whether an attached stop-watcher is requesting a halt
// (RunUntil returns cleanly in that case; this disambiguates).
func (s *Swarm) Halted() bool { return s.k.TapHalted() }

func (s *Swarm) stepArrival() {
	idx := s.arrivalPicker.Pick(s.r)
	s.stats.Arrivals++
	if idx < len(s.arrivalIDs) {
		s.addID(s.arrivalIDs[idx])
		return
	}
	// Random-gift stream: one uniformly random coding vector. Building the
	// 1-dimensional span allocates, inherently: gifts mint new subspaces.
	v := s.vbuf
	for i := range v {
		v[i] = s.r.Intn(s.params.Field.Order())
	}
	sub, err := gf.SpanOf(s.params.Field, s.params.K, v)
	if err != nil {
		panic(fmt.Sprintf("codedsim: span of drawn gift vector failed: %v", err))
	}
	s.addID(s.intern(sub, false))
}

// stepSeedTick has the fixed seed (which knows the whole file) send a
// uniformly random coded piece to a uniform peer.
func (s *Swarm) stepSeedTick() {
	targetID := s.pickUniform()
	v := s.vbuf
	for i := range v {
		v[i] = s.r.Intn(s.params.Field.Order())
	}
	s.deliver(targetID, v)
}

func (s *Swarm) stepPeerTick() {
	uploaderID := s.pickUniform()
	targetID := s.pickUniform()
	if uploaderID == targetID && s.counts.Count(uploaderID) == 1 {
		// A single peer cannot usefully contact itself; and even with
		// count > 1 a same-subspace transfer is never innovative.
		s.stats.NoOps++
		return
	}
	v := s.subs[uploaderID].RandomVectorInto(s.r, s.vbuf)
	s.deliver(targetID, v)
}

// deliver adds coded piece v to the target group's subspace if innovative.
// Non-innovative contacts — the steady-state bulk — only touch the scratch
// buffer. An innovative one extends the target's basis by the residual
// ContainsBuf leaves in scratch, in the extension's own scratch rows, and
// mints a subspace only when no live group has the extended key.
func (s *Swarm) deliver(targetID int, v gf.Vec) {
	target := s.subs[targetID]
	in, err := target.ContainsBuf(v, s.scratch)
	if err != nil || in {
		s.stats.NoOps++
		return
	}
	key := s.ext.Extend(target, s.scratch)
	// Resolve the next group's id before removeID can recycle the target's:
	// interning first keeps the id table consistent when the target group
	// dies in the same event.
	nextID := -1
	if !s.ext.IsFull() || !s.params.GammaInf() {
		var ok bool
		if nextID, ok = s.idOf[string(key)]; !ok {
			nextID = s.newGroup(s.ext.Subspace(), key, false)
		}
	}
	s.removeID(targetID)
	if nextID < 0 {
		s.stats.Departures++
	} else {
		s.addID(nextID)
	}
	s.stats.Uploads++
}

func (s *Swarm) stepDeparture() {
	if s.nFull == 0 {
		return // round-off fallback fired the class at zero rate
	}
	// Uniform among full peers; the full subspace is one permanent group.
	if s.counts.Count(s.fullID) == 0 {
		return
	}
	s.removeID(s.fullID)
	s.stats.Departures++
}

// RunUntil advances until the time or population limit fires. An attached
// stop-watcher ends the run cleanly (nil error); Halted tells that stop
// apart from the limits.
func (s *Swarm) RunUntil(maxTime float64, maxPeers int) error {
	_, err := s.k.RunUntil(maxTime, maxPeers)
	return err
}
