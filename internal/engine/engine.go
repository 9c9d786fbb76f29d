// Package engine is the parallel Monte-Carlo substrate shared by every
// replicated experiment in the repository. A Job names a Backend (an
// adapter over one of the simulators: the type-count swarm, the coded
// swarm, the peer-granular swarm, or the µ=∞ borderline chain) and a
// replica count; the engine fans the replicas across a worker pool while
// keeping results bit-for-bit deterministic:
//
//   - every replica runs on its own RNG stream, split off the base seed in
//     replica order before any worker starts, so the stream assignment is
//     independent of scheduling;
//   - per-replica records (scalar values plus any decimated series and
//     event marks from an attached observer pipeline, internal/obs) are
//     collected by index and aggregated in replica order, so Welford merges
//     see the same sequence whatever the worker count;
//   - sinks receive the per-replica records — series and marks included —
//     in replica order after the run completes, so emitted JSONL is
//     byte-identical for 1 or N workers.
//
// The only scheduling-dependent observable is the Progress callback, which
// reports completion counts as they happen.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Errors reported by the engine.
var (
	ErrNoBackend = errors.New("engine: job has no backend")
	ErrNoWork    = errors.New("engine: job has no replicas")
)

// Sample is one replica's named scalar outcomes. Keys present in some
// replicas and absent in others are aggregated over the replicas that
// reported them (that is how conditional metrics like "occupancy of the
// non-growing replicas" and event counters like "onset observed" are
// expressed).
type Sample map[string]float64

// Record is one replica's structured outcome: scalar values, decimated
// trajectory series, and named event marks (hitting times). Values come
// from the backend's Measure; Series and Marks come from the replica's
// observer pipeline (internal/obs) when one is attached. Scalars and marks
// share one aggregation namespace — a mark is folded into the job summary
// exactly like a conditional scalar — so observers and Measure funcs in
// one job must use distinct names.
type Record struct {
	Values Sample
	Series map[string][]obs.Point
	Marks  map[string]float64
}

// merge folds an observer snapshot into the record. Backend-reported
// scalars win name collisions against observer scalars.
func (rec *Record) merge(snap obs.Snapshot) {
	rec.Series = snap.Series
	rec.Marks = snap.Marks
	if len(snap.Values) == 0 {
		return
	}
	if rec.Values == nil {
		rec.Values = make(Sample, len(snap.Values))
	}
	for k, v := range snap.Values {
		if _, taken := rec.Values[k]; !taken {
			rec.Values[k] = v
		}
	}
}

// Backend produces one replica outcome from a dedicated RNG stream. A
// Backend must be safe for concurrent RunReplica calls; all the adapters
// in this package are, because each call builds its own simulator from the
// replica's stream.
type Backend interface {
	// Name labels the backend in sink records.
	Name() string
	// RunReplica runs replica number rep (0-based) to completion. The
	// generator is the replica's private stream; long-running backends
	// should poll ctx and abandon work when it is cancelled.
	RunReplica(ctx context.Context, rep int, r *rng.RNG) (Record, error)
}

// Func adapts a closure to a Backend. The closure returns plain scalar
// samples; use a simulator backend with an Observe hook when series or
// marks are wanted.
type Func struct {
	Label string
	Fn    func(ctx context.Context, rep int, r *rng.RNG) (Sample, error)
}

// Name implements Backend.
func (f Func) Name() string {
	if f.Label == "" {
		return "func"
	}
	return f.Label
}

// RunReplica implements Backend.
func (f Func) RunReplica(ctx context.Context, rep int, r *rng.RNG) (Record, error) {
	s, err := f.Fn(ctx, rep, r)
	return Record{Values: s}, err
}

// Job describes one replicated Monte-Carlo computation.
type Job struct {
	// Name labels the job in sink records and errors.
	Name string
	// Backend runs one replica; required.
	Backend Backend
	// Replicas is the number of independent sample paths; required > 0.
	Replicas int
	// Seed is the base seed the replica streams are split from (default 1).
	Seed uint64
	// StreamFor, when non-nil, replaces the default replica-order stream
	// derivation: replica i runs on StreamFor(i) instead of the i-th Split
	// of the job seed. Implementations must be pure functions of i so the
	// run stays schedule-independent. The sweep subsystem uses this to key
	// streams by cell content, making a cell's outcome independent of how
	// refinement batched it.
	StreamFor func(rep int) *rng.RNG
	// Workers bounds the worker pool; 0 means DefaultWorkers().
	Workers int
	// Sink, when non-nil, receives per-replica records (in replica order)
	// and the aggregate after the run completes.
	Sink Sink
	// Progress, when non-nil, is called after each replica completes with
	// the number done so far and the total. Calls are serialized but their
	// order follows scheduling, not replica index.
	Progress func(done, total int)
}

// DefaultWorkers is the worker-pool size used when a job does not set one:
// the process's GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Result is the deterministic outcome of a job.
type Result struct {
	// Job echoes the job name.
	Job string
	// Replicas echoes the replica count.
	Replicas int
	// Records holds every replica's structured record, indexed by replica.
	Records []Record

	metrics map[string]*dist.Summary
	keys    []string
}

// Sample returns replica i's scalar values (nil when the replica reported
// none) — the scalar view of Records[i].
func (res *Result) Sample(i int) Sample { return res.Records[i].Values }

// aggregate folds scalar values and event marks into per-key summaries,
// strictly in replica order so Welford merges are deterministic. Marks are
// conditional by construction (a watch that never hit emits nothing), so
// they double as onset counters through Count, exactly like conditional
// scalars.
func (res *Result) aggregate() {
	res.metrics = make(map[string]*dist.Summary)
	add := func(k string, v float64) {
		sum, ok := res.metrics[k]
		if !ok {
			sum = &dist.Summary{}
			res.metrics[k] = sum
			res.keys = append(res.keys, k)
		}
		sum.Add(v)
	}
	var scratch []string // key-sort buffer reused across all replica records
	for _, rec := range res.Records {
		scratch = appendSortedKeys(scratch[:0], rec.Values)
		for _, k := range scratch {
			add(k, rec.Values[k])
		}
		scratch = appendSortedKeys(scratch[:0], rec.Marks)
		for _, k := range scratch {
			add(k, rec.Marks[k])
		}
	}
	sort.Strings(res.keys)
}

// Keys returns the metric names seen across all replicas, sorted.
func (res *Result) Keys() []string { return res.keys }

// Summary returns the aggregate for one metric (an empty summary when no
// replica reported it).
func (res *Result) Summary(key string) *dist.Summary {
	if s, ok := res.metrics[key]; ok {
		return s
	}
	return &dist.Summary{}
}

// Mean returns the aggregate mean of one metric (NaN when unreported).
func (res *Result) Mean(key string) float64 { return res.Summary(key).Mean() }

// Count returns how many replicas reported the metric — the onset-counter
// view of conditional keys.
func (res *Result) Count(key string) int { return res.Summary(key).N() }

// Run executes the job and returns its deterministic aggregate. A nil
// context is treated as context.Background(); cancelling the context stops
// the run and returns the context's error.
func Run(ctx context.Context, job Job) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if job.Backend == nil {
		return nil, fmt.Errorf("%w (job %q)", ErrNoBackend, job.Name)
	}
	if job.Replicas <= 0 {
		return nil, fmt.Errorf("%w (job %q)", ErrNoWork, job.Name)
	}
	// Job-level trace span on the shared "engine" track, covering stream
	// derivation through aggregation and sink emission (error paths too).
	var jb *trace.Buf
	if tr := trace.Default(); tr != nil {
		jb = tr.Track("engine")
		job0 := jb.Now()
		defer func() { jb.Span("job:"+job.Name, "engine", job0, int64(job.Replicas)) }()
	}
	seed := job.Seed
	if seed == 0 {
		seed = 1
	}
	// Derive every replica stream up front, in replica order, so the
	// assignment is a pure function of the base seed (or of StreamFor).
	streams := make([]*rng.RNG, job.Replicas)
	if job.StreamFor != nil {
		for i := range streams {
			streams[i] = job.StreamFor(i)
		}
	} else {
		base := rng.New(seed)
		for i := range streams {
			streams[i] = base.Split()
		}
	}

	records, err := runPool(ctx, job, streams)
	if err != nil {
		return nil, err
	}
	res := &Result{Job: job.Name, Replicas: job.Replicas, Records: records}
	var agg0 int64
	if jb != nil {
		agg0 = jb.Now()
	}
	res.aggregate()
	if jb != nil {
		jb.Span("job.aggregate", "engine", agg0, int64(job.Replicas))
	}
	if job.Sink != nil {
		if err := emit(job, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	return appendSortedKeys(make([]string, 0, len(m)), m)
}

// appendSortedKeys appends m's keys to buf and sorts the result, the
// reuse-friendly form of sortedKeys.
func appendSortedKeys[V any](buf []string, m map[string]V) []string {
	for k := range m {
		buf = append(buf, k)
	}
	sort.Strings(buf)
	return buf
}
