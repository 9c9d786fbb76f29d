package engine

import (
	"context"
	"errors"

	"repro/internal/borderline"
	"repro/internal/codedsim"
	"repro/internal/hybrid"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/peersim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stability"

	"repro/internal/model"
)

// ErrNoMeasure reports a backend constructed without a measurement.
var ErrNoMeasure = errors.New("engine: backend has no Measure func")

// runReplica is the one replica body every simulator adapter shares:
// build the simulator on the replica's stream, build its observer pipeline
// (when observe is non-nil; tapped attaches it to the kernel tap), run
// measure, and seal the record from the sample and the observer snapshot.
// Each adapter's RunReplica supplies only its own construction.
func runReplica[S interface{ Now() float64 }](
	ctx context.Context, rep int,
	build func() (S, error),
	observe func(rep int, sw S) *obs.Set,
	measure func(ctx context.Context, rep int, sw S) (Sample, error),
) (Record, error) {
	if measure == nil {
		return Record{}, ErrNoMeasure
	}
	sw, err := build()
	if err != nil {
		return Record{}, err
	}
	var set *obs.Set
	if observe != nil {
		set = observe(rep, sw)
	}
	sample, err := measure(ctx, rep, sw)
	if err != nil {
		return Record{}, err
	}
	rec := Record{Values: sample}
	if set != nil {
		set.Seal(sw.Now())
		rec.merge(set.Snapshot())
	}
	return rec, nil
}

// tapped wraps an adapter's Observe hook so the pipeline it builds is
// attached to the simulator's kernel tap. The empty pipeline is not
// attached (the wrapper returns nil), so observer-less replicas keep the
// nil-tap fast path.
func tapped[S interface{ SetTap(kernel.Tap) }](observe func(rep int, sw S) *obs.Set) func(rep int, sw S) *obs.Set {
	if observe == nil {
		return nil
	}
	return func(rep int, sw S) *obs.Set {
		set := observe(rep, sw)
		if set == nil || set.Empty() {
			return nil
		}
		sw.SetTap(set)
		return set
	}
}

// SwarmBackend drives the type-count simulator (internal/sim): each replica
// builds a fresh swarm on its private stream and hands it to Measure.
type SwarmBackend struct {
	// Label names the backend in sink records (default "sim").
	Label string
	// Params configures the swarm.
	Params model.Params
	// Options are extra swarm options (policy, initial peers, scenario).
	// The engine appends its own WithRNG last, so a WithSeed here is
	// overridden.
	Options []sim.Option
	// Observe, when non-nil, builds the replica's observer pipeline once
	// its swarm exists (probes close over sw); the pipeline is attached to
	// the swarm's kernel tap before Measure runs and its sealed snapshot —
	// series, marks, scalars — is folded into the replica record after.
	Observe func(rep int, sw *sim.Swarm) *obs.Set
	// Measure runs the replica on the fresh swarm and extracts its sample.
	Measure func(ctx context.Context, rep int, sw *sim.Swarm) (Sample, error)
}

// Name implements Backend.
func (b *SwarmBackend) Name() string { return orDefault(b.Label, "sim") }

// RunReplica implements Backend.
func (b *SwarmBackend) RunReplica(ctx context.Context, rep int, r *rng.RNG) (Record, error) {
	return runReplica(ctx, rep, func() (*sim.Swarm, error) {
		return sim.New(b.Params, append(append([]sim.Option{}, b.Options...), sim.WithRNG(r))...)
	}, tapped(b.Observe), b.Measure)
}

// HybridBackend drives the adaptive multi-regime simulator
// (internal/hybrid): exact CTMC near boundaries, tau-leaping in the bulk,
// and the fluid ODE deep in the interior. Replica streams come
// from the engine exactly as for the other backends, so results are
// byte-identical at any worker count. There is no Observe hook: the hybrid
// backend has no persistent kernel to tap (its exact segments rebuild
// kernels as regimes switch); measurements go through the Swarm accessors.
type HybridBackend struct {
	// Label names the backend in sink records (default "hybrid").
	Label string
	// Params configures the swarm.
	Params model.Params
	// Options are extra swarm options (initial peers, watches are armed in
	// Measure). The engine appends its own WithRNG last.
	Options []hybrid.Option
	// Measure runs the replica on the fresh swarm and extracts its sample.
	Measure func(ctx context.Context, rep int, h *hybrid.Swarm) (Sample, error)
}

// Name implements Backend.
func (b *HybridBackend) Name() string { return orDefault(b.Label, "hybrid") }

// RunReplica implements Backend.
func (b *HybridBackend) RunReplica(ctx context.Context, rep int, r *rng.RNG) (Record, error) {
	return runReplica(ctx, rep, func() (*hybrid.Swarm, error) {
		return hybrid.New(b.Params, append(append([]hybrid.Option{}, b.Options...), hybrid.WithRNG(r))...)
	}, nil, b.Measure)
}

// CodedBackend drives the network-coding simulator (internal/codedsim).
type CodedBackend struct {
	Label   string
	Params  stability.CodedParams
	Options []codedsim.Option
	// Observe, when non-nil, builds the replica's observer pipeline (see
	// SwarmBackend.Observe).
	Observe func(rep int, sw *codedsim.Swarm) *obs.Set
	Measure func(ctx context.Context, rep int, sw *codedsim.Swarm) (Sample, error)
}

// Name implements Backend.
func (b *CodedBackend) Name() string { return orDefault(b.Label, "codedsim") }

// RunReplica implements Backend.
func (b *CodedBackend) RunReplica(ctx context.Context, rep int, r *rng.RNG) (Record, error) {
	return runReplica(ctx, rep, func() (*codedsim.Swarm, error) {
		return codedsim.New(b.Params, append(append([]codedsim.Option{}, b.Options...), codedsim.WithRNG(r))...)
	}, tapped(b.Observe), b.Measure)
}

// PeerBackend drives the peer-granular simulator (internal/peersim), whose
// per-peer sojourn statistics back the Little's-law cross-checks.
type PeerBackend struct {
	Label   string
	Params  model.Params
	Options []peersim.Option
	// Observe, when non-nil, builds the replica's observer pipeline (see
	// SwarmBackend.Observe). The swarm's built-in sojourn tracker
	// (sw.Sojourn) can be added to the set so its statistics flow into the
	// replica record.
	Observe func(rep int, sw *peersim.Swarm) *obs.Set
	Measure func(ctx context.Context, rep int, sw *peersim.Swarm) (Sample, error)
}

// Name implements Backend.
func (b *PeerBackend) Name() string { return orDefault(b.Label, "peersim") }

// RunReplica implements Backend.
func (b *PeerBackend) RunReplica(ctx context.Context, rep int, r *rng.RNG) (Record, error) {
	return runReplica(ctx, rep, func() (*peersim.Swarm, error) {
		return peersim.New(b.Params, append(append([]peersim.Option{}, b.Options...), peersim.WithRNG(r))...)
	}, tapped(b.Observe), b.Measure)
}

// BorderlineBackend drives the µ=∞ embedded chain (internal/borderline).
type BorderlineBackend struct {
	Label string
	// K and Lambda configure the chain (per-piece arrival rate Lambda).
	K      int
	Lambda float64
	// Observe, when non-nil, builds the replica's observer pipeline (see
	// SwarmBackend.Observe).
	Observe func(rep int, c *borderline.Chain) *obs.Set
	Measure func(ctx context.Context, rep int, c *borderline.Chain) (Sample, error)
}

// Name implements Backend.
func (b *BorderlineBackend) Name() string { return orDefault(b.Label, "borderline") }

// RunReplica implements Backend.
func (b *BorderlineBackend) RunReplica(ctx context.Context, rep int, r *rng.RNG) (Record, error) {
	return runReplica(ctx, rep, func() (*borderline.Chain, error) {
		return borderline.NewFromRNG(b.K, b.Lambda, r)
	}, tapped(b.Observe), b.Measure)
}

func orDefault(label, def string) string {
	if label == "" {
		return def
	}
	return label
}
