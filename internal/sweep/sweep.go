// Package sweep is the phase-diagram subsystem: it evaluates 2-D parameter
// grids over arbitrary model/scenario axes by sharding cells across the
// parallel Monte-Carlo engine as one case-parallel job, and adaptively
// refines only the cells whose neighbors disagree — quadtree bisection
// toward the stability boundary — instead of densifying the whole plane.
//
// The pieces:
//
//   - Point/Cell/Evaluator — one parameter point, its classified outcome,
//     and the pluggable evaluation (Theory via stability.Classify,
//     Empirical via Monte-Carlo classification, or ad-hoc experiment
//     evaluators).
//   - Runner — the sharded evaluation layer: deduplicates points through a
//     memoizing Cache keyed by a canonical hash of model.Params, scenario
//     and evaluator fingerprint, and fans the cache misses across
//     internal/engine. Every cell runs on a stream derived from its own
//     cache key, so its outcome is independent of batch composition,
//     worker count, and resume state.
//   - Grid — the adaptive quadtree driver producing a Map raster with
//     deterministic iteration order (output is bit-for-bit stable across
//     worker counts).
//   - Cache — the memo table, with an optional columnar cell store
//     (OpenCellStore) so an interrupted sweep resumes without
//     re-simulating finished cells.
//
// Experiment E16, cmd/phasemap, examples/stabilitymap, and the E5/E14 case
// scans all ride this package; see DESIGN.md §8.
package sweep

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Errors reported by the sweep subsystem.
var (
	// ErrEmptyGrid is returned when a grid specification covers no cells
	// (non-positive cell counts, an empty range, or a negative depth).
	ErrEmptyGrid = errors.New("sweep: empty grid")
	// ErrUnknownAxis is returned when an axis name is not registered.
	ErrUnknownAxis = errors.New("sweep: unknown axis")
)

// Point is one parameter-space cell to evaluate: the fully applied model
// parameters plus workload scenario. X and Y record the axis coordinates
// that produced the point; they are informational and excluded from the
// cache key, so distinct coordinates mapping to identical parameters
// deduplicate to one evaluation.
type Point struct {
	Params   model.Params
	Scenario kernel.Scenario
	X, Y     float64
}

// Cell is one evaluated outcome. Class drives adaptive refinement (cells
// disagreeing with a neighbor's Class are bisected) and the ASCII map
// glyphs; Value is the primary scalar for CSV/JSONL output; Values carries
// every named outcome. All float fields must be finite: cells are spilled
// to JSON, which cannot represent NaN or ±Inf (see SetFinite).
type Cell struct {
	Class  string             `json:"class"`
	Value  float64            `json:"value"`
	Values map[string]float64 `json:"values,omitempty"`
}

// SetFinite stores v under key only when v is finite, keeping Cell
// JSON-safe; evaluators use it for metrics that can be ±Inf (margins) or
// NaN (occupancy of an all-growing cell).
func (c *Cell) SetFinite(key string, v float64) {
	if v != v || v > maxFinite || v < -maxFinite {
		return
	}
	if c.Values == nil {
		c.Values = make(map[string]float64)
	}
	c.Values[key] = v
}

const maxFinite = 1.7976931348623157e308

// Evaluator classifies one point. Implementations must be safe for
// concurrent Evaluate calls and must draw all randomness from the provided
// stream, which the Runner derives from the point's cache key — so one
// point always sees the same stream, whatever batch it lands in.
type Evaluator interface {
	// Name labels the evaluator in job names and cache keys.
	Name() string
	// Fingerprint canonically encodes every configuration knob that
	// changes the outcome (horizons, replica counts, seeds, …); it is
	// folded into the cache key so stale entries can never be reused.
	Fingerprint() string
	// Evaluate classifies the point.
	Evaluate(ctx context.Context, pt Point, r *rng.RNG) (Cell, error)
}

// Runner is the sharded evaluation layer: it memoizes points in a Cache
// and evaluates the misses as one case-parallel engine job. A Runner is
// not safe for concurrent use; one sweep drives one Runner.
type Runner struct {
	// Evaluator classifies points; required.
	Evaluator Evaluator
	// Workers bounds the engine worker pool (0 = engine default).
	Workers int
	// Cache memoizes evaluated cells. Nil allocates a private in-memory
	// cache on first use (still deduplicates within and across batches of
	// one Runner); attach a cell store (OpenCellStore) to spill and resume.
	Cache *Cache
	// Progress, when non-nil, receives live completion counts for each
	// batch: name is the batch label (e.g. the refinement round), done and
	// total count evaluated cells. Calls follow engine scheduling.
	Progress func(name string, done, total int)
	// Sink, when non-nil, receives the engine's structured per-cell
	// records (each cell's numeric Values) and batch aggregates.
	Sink engine.Sink

	stats Stats
}

// Stats counts the work a Runner (or one Grid run) performed.
type Stats struct {
	// Evaluated is the number of cells actually simulated/classified.
	Evaluated int
	// CacheHits counts points answered from the cache.
	CacheHits int
	// Deduped counts points that collapsed onto another point in the same
	// batch (identical canonical key).
	Deduped int
	// Rounds is the number of refinement rounds a Grid run performed
	// (1 = the base grid only).
	Rounds int
	// DenseCells is the cell count a dense grid at the same boundary
	// resolution would have evaluated.
	DenseCells int
}

// Stats returns the Runner's cumulative work counters.
func (r *Runner) Stats() Stats { return r.stats }

func (r *Runner) cache() *Cache {
	if r.Cache == nil {
		r.Cache = NewCache()
	}
	return r.Cache
}

// Points evaluates the given points and returns their cells in input
// order. Cached points are answered from the memo table; duplicate keys
// evaluate once; the remaining misses run as one engine job named name,
// sharded across the worker pool. Results and the cell-store bytes are
// deterministic for any worker count because each cell's stream is a pure
// function of its cache key and cache writes follow input order.
//
// When telemetry is enabled the batch's work deltas mirror into the
// process registry (sweep_cells_evaluated_total, sweep_cache_hits_total,
// sweep_cells_deduped_total) so /metrics and the run report expose the
// live cache hit rate.
func (r *Runner) Points(ctx context.Context, name string, pts []Point) ([]Cell, error) {
	if r.Evaluator == nil {
		return nil, errors.New("sweep: runner has no evaluator")
	}
	before := r.stats
	defer func() {
		telemetry.Add(telemetry.SweepEvaluated, uint64(r.stats.Evaluated-before.Evaluated))
		telemetry.Add(telemetry.SweepCacheHits, uint64(r.stats.CacheHits-before.CacheHits))
		telemetry.Add(telemetry.SweepDeduped, uint64(r.stats.Deduped-before.Deduped))
	}()
	// Batch span on the shared "sweep" track, carrying the number of cells
	// actually evaluated; cache hits get per-cell instant marks below.
	var tb *trace.Buf
	if tr := trace.Default(); tr != nil {
		tb = tr.Track("sweep")
		t0 := tb.Now()
		defer func() {
			tb.Span("batch:"+name, "sweep", t0, int64(r.stats.Evaluated-before.Evaluated))
		}()
	}
	cache := r.cache()
	type work struct {
		pt   Point
		key  string
		seed uint64
	}
	keys := make([]string, len(pts))
	var misses []work
	batch := make(map[string]bool, len(pts))
	for i, pt := range pts {
		key, seed := keyFor(r.Evaluator, pt)
		keys[i] = key
		if _, ok := cache.Get(key); ok {
			r.stats.CacheHits++
			tb.Instant("cache.hit", "sweep", int64(i))
			continue
		}
		if batch[key] {
			r.stats.Deduped++
			continue
		}
		batch[key] = true
		misses = append(misses, work{pt: pt, key: key, seed: seed})
	}
	if len(misses) > 0 {
		cells := make([]Cell, len(misses))
		job := engine.Job{
			Name:     name,
			Replicas: len(misses),
			Workers:  r.Workers,
			Sink:     r.Sink,
			// Streams are keyed by cell content, not replica order, so a
			// cell's outcome is identical however refinement or a resumed
			// cache batched it.
			StreamFor: func(rep int) *rng.RNG { return rng.New(misses[rep].seed) },
			Backend: engine.Func{
				Label: "sweep/" + r.Evaluator.Name(),
				Fn: func(ctx context.Context, rep int, rr *rng.RNG) (engine.Sample, error) {
					cell, err := r.Evaluator.Evaluate(ctx, misses[rep].pt, rr)
					if err != nil {
						return nil, err
					}
					cells[rep] = cell
					return engine.Sample(cell.Values), nil
				},
			},
		}
		if r.Progress != nil {
			job.Progress = func(done, total int) { r.Progress(name, done, total) }
		}
		if _, err := engine.Run(ctx, job); err != nil {
			return nil, err
		}
		// Commit in batch order so the cell store is deterministic.
		for i, w := range misses {
			if err := cache.Put(w.key, canonicalPoint(w.pt), cells[i]); err != nil {
				return nil, fmt.Errorf("sweep: cache: %w", err)
			}
		}
		r.stats.Evaluated += len(misses)
	}
	out := make([]Cell, len(pts))
	for i, key := range keys {
		cell, ok := cache.Get(key)
		if !ok {
			return nil, fmt.Errorf("sweep: cell %q missing after evaluation", key)
		}
		out[i] = cell
	}
	return out, nil
}
