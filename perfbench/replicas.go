package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
	"time"

	"repro/internal/codedsim"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/peersim"
	"repro/internal/sim"
	"repro/internal/store"
)

// replicasWorkload is replicas-exact: one engine job each for the
// type-count, peer-granular and coded simulators at stable K = 3 points,
// every replica a long stationary path with an observer pipeline, all
// records teed into the JSONL sink and the columnar store, and the store
// read back at the end.
type replicasWorkload struct {
	in      *replicaInputs
	workers int

	// Outputs of the last run, for check.
	jsonl, back []byte
	counts      [3]*simCounts
}

// eventCounter counts kernel events through the observer tap, for the
// peer-granular swarm, which exposes no event counter of its own.
type eventCounter struct{ n uint64 }

func (c *eventCounter) OnEvent(float64, int, float64) { c.n++ }

// simCounts accumulates one job's simulator counters across replicas.
type simCounts struct {
	mu                     sync.Mutex
	events, uploads, noops uint64
	grown, replicas        int
}

func (c *simCounts) add(events, uploads, noops uint64, grown bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events += events
	c.uploads += uploads
	c.noops += noops
	c.replicas++
	if grown {
		c.grown++
	}
}

// observe builds a replica's observer pipeline — a decimated population
// series, P² population quantiles and a hitting-time watch — inside an obs
// span. It runs from the backend's Observe hook, right after the
// simulator's constructor, so the time since the replica started is
// recorded as the simulator's constructor span.
func observe(clock *taskClock, rep int, layer string, seriesDT float64, pop obs.Probe, watch *obs.Watch, extra ...obs.Observer) *obs.Set {
	t := clock.lookup(rep)
	now := time.Now()
	t.childFrom(t.start, layer+".new", layer).endAt(now)
	sp := t.childFrom(now, "obs.build", "obs")
	set := obs.NewSet(
		obs.NewSeries("n", 0, seriesDT, 64, pop),
		obs.NewQuantiles("n_q", pop, 0.5, 0.9),
		watch,
	)
	for _, o := range extra {
		set.Add(o)
	}
	sp.end()
	return set
}

// timeRun runs fn inside a "<layer>.run" span of the context's task.
func timeRun(ctx context.Context, layer string, fn func() error) error {
	sp := taskFrom(ctx).child(layer+".run", layer)
	defer sp.end()
	return fn()
}

func (w *replicasWorkload) run(ctx context.Context, log *roundLog) (*roundResult, error) {
	res := newRoundResult()
	var jsonl, storeBuf bytes.Buffer
	var cur *taskClock // the running job, parent of the sink spans
	parent := func() int32 { return cur.poolSpan.id() }
	created := log.tr.begin("store.create", "store", log.root, -1, 0)
	storeSink, err := engine.NewStoreSink(&storeBuf)
	created.end()
	if err != nil {
		return nil, err
	}
	sink := engine.Tee(
		timedSink{inner: engine.NewJSONLSink(&jsonl), layer: "engine", name: "engine.jsonl", parent: parent, tr: log.tr},
		timedSink{inner: storeSink, layer: "store", name: "store.write", parent: parent, tr: log.tr},
	)
	for i := range w.counts {
		w.counts[i] = &simCounts{}
	}
	reps := w.in.Replicas
	job := func(name string, seed uint64, b engine.Backend) error {
		r, err := engine.Run(ctx, engine.Job{
			Name: name, Backend: timedBackend{b, cur}, Replicas: reps,
			Seed: seed, Workers: w.workers, Sink: sink,
		})
		cur.done()
		if err != nil {
			return err
		}
		for _, rec := range r.Records {
			res.counts["obs.series_points"] += float64(len(rec.Series["n"]))
		}
		return nil
	}

	sp := w.in.Sim
	simC := w.counts[0]
	cur = log.pool("engine.run", "engine", "engine.replica", "engine")
	clock := cur
	err = job("replicas/sim", w.in.Seed, &engine.SwarmBackend{
		Label: "sim", Params: sp.Params,
		Observe: func(rep int, sw *sim.Swarm) *obs.Set {
			club := obs.NewWatch("one_club", false, func(_, pop float64) bool {
				return pop >= 100 && float64(sw.OneClub(1)) >= pop/2
			})
			return observe(clock, rep, "sim", sp.Horizon*w.in.SeriesDT, func() float64 { return float64(sw.N()) }, club)
		},
		Measure: func(ctx context.Context, rep int, sw *sim.Swarm) (engine.Sample, error) {
			var reason sim.StopReason
			err := timeRun(ctx, "sim", func() (err error) {
				reason, err = sw.RunUntil(sp.Horizon, sp.PeerCap)
				return err
			})
			if err != nil {
				return nil, err
			}
			st := sw.Stats()
			simC.add(st.Events, st.Uploads, st.NoOps, reason == sim.StopPeers)
			return engine.Sample{"final_n": float64(sw.N()), "mean_n": sw.MeanPeers()}, nil
		},
	})
	if err != nil {
		return nil, err
	}

	pp := w.in.Peer
	peerC := w.counts[1]
	cur = log.pool("engine.run", "engine", "engine.replica", "engine")
	clockP := cur
	counters := make([]*eventCounter, reps)
	err = job("replicas/peersim", w.in.Seed+1, &engine.PeerBackend{
		Label: "peersim", Params: pp.Params,
		Observe: func(rep int, sw *peersim.Swarm) *obs.Set {
			starved := obs.NewWatch("piece1_starved", false, func(_, pop float64) bool {
				return pop >= 100 && sw.Holders(1) == 0
			})
			counters[rep] = &eventCounter{}
			return observe(clockP, rep, "peersim", pp.Horizon*w.in.SeriesDT, func() float64 { return float64(sw.N()) }, starved, counters[rep])
		},
		Measure: func(ctx context.Context, rep int, sw *peersim.Swarm) (engine.Sample, error) {
			if err := timeRun(ctx, "peersim", func() error { return sw.RunUntil(pp.Horizon, pp.PeerCap) }); err != nil {
				return nil, err
			}
			peerC.add(counters[rep].n, 0, 0, sw.N() >= pp.PeerCap)
			return engine.Sample{"final_n": float64(sw.N()), "mean_n": sw.MeanPeers(), "departed": float64(sw.Departed())}, nil
		},
	})
	if err != nil {
		return nil, err
	}

	cp := w.in.Coded
	codedC := w.counts[2]
	cur = log.pool("engine.run", "engine", "engine.replica", "engine")
	clockC := cur
	err = job("replicas/codedsim", w.in.Seed+2, &engine.CodedBackend{
		Label: "codedsim", Params: cp.Params,
		Observe: func(rep int, sw *codedsim.Swarm) *obs.Set {
			crowd := obs.NewPopulationWatch("crowd", float64(cp.PeerCap/2), false)
			return observe(clockC, rep, "codedsim", cp.Horizon*w.in.SeriesDT, func() float64 { return float64(sw.N()) }, crowd)
		},
		Measure: func(ctx context.Context, rep int, sw *codedsim.Swarm) (engine.Sample, error) {
			if err := timeRun(ctx, "codedsim", func() error { return sw.RunUntil(cp.Horizon, cp.PeerCap) }); err != nil {
				return nil, err
			}
			st := sw.Stats()
			codedC.add(st.Events, st.Uploads, st.NoOps, sw.N() >= cp.PeerCap)
			return engine.Sample{"final_n": float64(sw.N()), "mean_n": sw.MeanPeers()}, nil
		},
	})
	if err != nil {
		return nil, err
	}

	closing := log.tr.begin("store.close", "store", log.root, -1, 0)
	err = storeSink.Close()
	closing.end()
	if err != nil {
		return nil, err
	}
	reading := log.tr.begin("store.read", "store", log.root, -1, 0)
	var back bytes.Buffer
	reader, err := store.NewReader(bytes.NewReader(storeBuf.Bytes()), int64(storeBuf.Len()))
	if err == nil {
		err = engine.StoreToJSONL(&back, reader)
	}
	reading.end()
	if err != nil {
		return nil, err
	}
	w.jsonl, w.back = jsonl.Bytes(), back.Bytes()

	res.counts["store.rows"] = float64(reader.NumRows())
	res.counts["store.bytes"] = float64(storeBuf.Len())
	for i, layer := range []string{"sim", "peersim", "codedsim"} {
		c := w.counts[i]
		res.counts[layer+".events"] = float64(c.events)
		if layer != "peersim" {
			res.counts[layer+".useful_ratio"] = float64(c.uploads) / float64(c.uploads+c.noops)
		}
		res.work += float64(c.events)
	}
	return res, nil
}

func (w *replicasWorkload) check(res *roundResult) error {
	if !bytes.Equal(w.jsonl, w.back) {
		return errors.New("store read back through StoreToJSONL differs from the JSONL tee")
	}
	sum := sha256.Sum256(w.jsonl)
	res.digest = hex.EncodeToString(sum[:])
	// Every point is stable (Theorem 1 / Theorem 15): a replica agrees
	// when its population stays below the peer cap.
	for i := range w.counts {
		res.judged += w.counts[i].replicas
		res.agree += w.counts[i].replicas - w.counts[i].grown
	}
	return nil
}
