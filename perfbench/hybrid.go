package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/engine"
	"repro/internal/hybrid"
	"repro/internal/rng"
	"repro/internal/sim"
)

// hybridWorkload is hybrid-scale: one engine job whose replicas cycle
// through points from N ≈ 1e3 to 1e6 on both sides of the stability
// boundary, each replica a HybridBackend run switching between exact,
// tau-leap and fluid regimes.
type hybridWorkload struct {
	in      *hybridInputs
	workers int
	seed    uint64

	outcomes []hybridOutcome // last run, by replica
}

type hybridOutcome struct {
	finalN int
	now    float64
	capped bool
	stats  hybrid.Stats
}

// pointsBackend runs replica rep on point rep / reps, as that point's
// replica rep % reps.
type pointsBackend struct {
	backends []engine.Backend
	reps     int
}

// Name implements engine.Backend.
func (b pointsBackend) Name() string { return "hybrid" }

// RunReplica implements engine.Backend.
func (b pointsBackend) RunReplica(ctx context.Context, rep int, r *rng.RNG) (engine.Record, error) {
	return b.backends[rep/b.reps].RunReplica(ctx, rep%b.reps, r)
}

func (w *hybridWorkload) run(ctx context.Context, log *roundLog) (*roundResult, error) {
	res := newRoundResult()
	reps := w.in.Replicas
	w.outcomes = make([]hybridOutcome, len(w.in.Points)*reps)
	backends := make([]engine.Backend, len(w.in.Points))
	for i, pt := range w.in.Points {
		i, pt := i, pt
		var opts []hybrid.Option
		if pt.Initial != nil {
			opts = append(opts, hybrid.WithInitialPeers(pt.Initial))
		}
		backends[i] = &engine.HybridBackend{
			Params: pt.Params, Options: opts,
			Measure: func(ctx context.Context, rep int, h *hybrid.Swarm) (engine.Sample, error) {
				t := taskFrom(ctx)
				t.childFrom(t.start, "hybrid.new", "hybrid").end()
				sp := t.child("hybrid.run", "hybrid")
				reason, err := h.RunUntil(pt.Horizon, pt.PeerCap)
				sp.end()
				if err != nil {
					return nil, err
				}
				w.outcomes[i*reps+rep] = hybridOutcome{
					finalN: h.N(), now: h.Now(), capped: reason == sim.StopPeers, stats: h.Stats(),
				}
				return engine.Sample{"final_n": float64(h.N()), "simtime": h.Now()}, nil
			},
		}
	}
	clock := log.pool("engine.run", "engine", "engine.replica", "engine")
	_, err := engine.Run(ctx, engine.Job{
		Name:     "hybrid-scale",
		Backend:  timedBackend{pointsBackend{backends, reps}, clock},
		Replicas: len(w.outcomes),
		Seed:     w.seed,
		Workers:  w.workers,
	})
	clock.done()
	if err != nil {
		return nil, err
	}

	var st hybrid.Stats
	for _, o := range w.outcomes {
		s := o.stats
		st.ExactEvents += s.ExactEvents
		st.LeapEvents += s.LeapEvents
		st.Leaps += s.Leaps
		st.LeapRejects += s.LeapRejects
		st.Switches += s.Switches
		st.Rebuilds += s.Rebuilds
		st.FluidSteps += s.FluidSteps
		st.ExactTime += s.ExactTime
		st.LeapTime += s.LeapTime
		st.FluidTime += s.FluidTime
	}
	simTime := st.ExactTime + st.LeapTime + st.FluidTime
	res.work = simTime
	c := res.counts
	c["hybrid.exact_events"] = float64(st.ExactEvents)
	c["hybrid.leap_events"] = float64(st.LeapEvents)
	c["hybrid.leaps"] = float64(st.Leaps)
	c["hybrid.leap_reject_ratio"] = float64(st.LeapRejects) / float64(st.Leaps+st.LeapRejects)
	c["hybrid.switches"] = float64(st.Switches)
	c["hybrid.rebuilds"] = float64(st.Rebuilds)
	c["hybrid.fluid_steps"] = float64(st.FluidSteps)
	c["hybrid.exact_time_frac"] = st.ExactTime / simTime
	c["hybrid.leap_time_frac"] = st.LeapTime / simTime
	c["hybrid.fluid_time_frac"] = st.FluidTime / simTime
	c["hybrid.simtime"] = simTime
	return res, nil
}

func (w *hybridWorkload) check(res *roundResult) error {
	h := sha256.New()
	reps := w.in.Replicas
	for i, o := range w.outcomes {
		fmt.Fprintf(h, "%d %x %v %+v\n", o.finalN, o.now, o.capped, o.stats)
		// The reference is the Theorem 1 verdict: a stable point's replica
		// stays below its peer cap, a transient point's replica reaches it.
		res.judged++
		if o.capped != w.in.Points[i/reps].Stable {
			res.agree++
		}
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	c := res.counts
	for _, k := range []string{"hybrid.exact_time_frac", "hybrid.leap_time_frac", "hybrid.fluid_time_frac"} {
		if !(c[k] > 0) {
			return fmt.Errorf("%s is %v: the point mix must engage every regime", k, c[k])
		}
	}
	return nil
}
