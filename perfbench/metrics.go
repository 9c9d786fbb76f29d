package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. Moves, for per-layer metrics, says
// which end-to-end metric the layer metric should move and on which
// workload — the prediction a change to that layer is checked against.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only: allowed worsening, share of the median
	Moves              string  // per-layer only
}

// endToEnd are the metrics a user of the system sees, reported on every
// workload with tracing off. A task is one engine replica (replicas-exact,
// hybrid-scale) or one evaluated sweep cell (phasemap-adaptive,
// exact-solve); a round is the workload's fixed, seed-determined batch of
// tasks, repeated until the run's time is up.
//
// work_per_s counts each workload's own unit of work: exact events
// (replicas-exact), simulated time units summed over replicas
// (hybrid-scale), fine raster cells resolved by both passes
// (phasemap-adaptive) and power-iteration state updates, iterations ×
// states (exact-solve).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "tasks_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "task_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "task_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "agree_frac", Unit: "ratio", Better: "higher", Bound: 0.05},
}

// perLayer are the traced run's metrics, one group per module. Counts are
// per round and repeat exactly at a fixed seed; times are medians over the
// traced rounds. A layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{Name: "engine.busy_s", Unit: "s", Better: "lower", Moves: "wall_s on replicas-exact"},
	{Name: "engine.wait_ms_p50", Unit: "ms", Better: "lower", Moves: "wall_s on replicas-exact"},
	{Name: "engine.idle_frac", Unit: "ratio", Better: "lower", Moves: "wall_s on exact-solve and hybrid-scale; tasks_per_s on phasemap-adaptive"},
	{Name: "engine.tail_s", Unit: "s", Better: "lower", Moves: "wall_s on replicas-exact"},
	{Name: "engine.allocs_per_task", Unit: "count", Better: "lower", Moves: "max_rss_mb on replicas-exact"},
	{Name: "engine.self_s", Unit: "s", Better: "lower", Moves: "wall_s on replicas-exact and hybrid-scale"},

	{Name: "sim.events", Unit: "count", Better: "higher", Moves: "work_per_s on replicas-exact"},
	{Name: "sim.step_ns", Unit: "ns", Better: "lower", Moves: "work_per_s on replicas-exact; work_per_s on hybrid-scale through its exact segments"},
	{Name: "sim.new_us", Unit: "us", Better: "lower", Moves: "work_per_s on replicas-exact"},
	{Name: "sim.useful_ratio", Unit: "ratio", Better: "higher", Moves: "work_per_s on replicas-exact"},
	{Name: "sim.self_s", Unit: "s", Better: "lower", Moves: "wall_s on replicas-exact; tasks_per_s on phasemap-adaptive"},
	{Name: "peersim.events", Unit: "count", Better: "higher", Moves: "work_per_s on replicas-exact"},
	{Name: "peersim.step_ns", Unit: "ns", Better: "lower", Moves: "work_per_s on replicas-exact"},
	{Name: "peersim.new_us", Unit: "us", Better: "lower", Moves: "work_per_s on replicas-exact"},
	{Name: "peersim.self_s", Unit: "s", Better: "lower", Moves: "wall_s on replicas-exact"},
	{Name: "codedsim.events", Unit: "count", Better: "higher", Moves: "work_per_s on replicas-exact"},
	{Name: "codedsim.step_ns", Unit: "ns", Better: "lower", Moves: "work_per_s on replicas-exact"},
	{Name: "codedsim.new_us", Unit: "us", Better: "lower", Moves: "work_per_s on replicas-exact"},
	{Name: "codedsim.useful_ratio", Unit: "ratio", Better: "higher", Moves: "work_per_s on replicas-exact"},
	{Name: "codedsim.self_s", Unit: "s", Better: "lower", Moves: "wall_s on replicas-exact"},

	{Name: "obs.build_us", Unit: "us", Better: "lower", Moves: "work_per_s and engine.tail_s on replicas-exact"},
	{Name: "obs.series_points", Unit: "count", Better: "lower", Moves: "work_per_s and engine.tail_s on replicas-exact"},
	{Name: "obs.self_s", Unit: "s", Better: "lower", Moves: "wall_s on replicas-exact"},

	{Name: "store.write_s", Unit: "s", Better: "lower", Moves: "wall_s on replicas-exact"},
	{Name: "store.rows", Unit: "count", Better: "lower", Moves: "wall_s on replicas-exact"},
	{Name: "store.bytes", Unit: "B", Better: "lower", Moves: "wall_s on replicas-exact"},
	{Name: "store.read_s", Unit: "s", Better: "lower", Moves: "wall_s on replicas-exact"},
	{Name: "store.replay_s", Unit: "s", Better: "lower", Moves: "tasks_per_s on phasemap-adaptive"},
	{Name: "store.cells_replayed", Unit: "count", Better: "higher", Moves: "tasks_per_s on phasemap-adaptive"},
	{Name: "store.self_s", Unit: "s", Better: "lower", Moves: "wall_s on replicas-exact and phasemap-adaptive"},

	{Name: "sweep.evaluated", Unit: "count", Better: "lower", Moves: "work_per_s on phasemap-adaptive; no move on exact-solve"},
	{Name: "sweep.cache_hits", Unit: "count", Better: "higher", Moves: "work_per_s on phasemap-adaptive; no move on exact-solve"},
	{Name: "sweep.deduped", Unit: "count", Better: "higher", Moves: "work_per_s on phasemap-adaptive; no move on exact-solve"},
	{Name: "sweep.rounds", Unit: "count", Better: "lower", Moves: "work_per_s on phasemap-adaptive; no move on exact-solve"},
	{Name: "sweep.adaptive_ratio", Unit: "ratio", Better: "lower", Moves: "work_per_s on phasemap-adaptive; no move on exact-solve"},
	{Name: "sweep.eval_busy_s", Unit: "s", Better: "lower", Moves: "work_per_s on phasemap-adaptive; no move on exact-solve"},
	{Name: "sweep.self_s", Unit: "s", Better: "lower", Moves: "work_per_s on phasemap-adaptive; no move on exact-solve"},

	{Name: "hybrid.exact_events", Unit: "count", Better: "lower", Moves: "work_per_s on hybrid-scale"},
	{Name: "hybrid.leap_events", Unit: "count", Better: "higher", Moves: "work_per_s on hybrid-scale"},
	{Name: "hybrid.leaps", Unit: "count", Better: "lower", Moves: "work_per_s on hybrid-scale"},
	{Name: "hybrid.leap_reject_ratio", Unit: "ratio", Better: "lower", Moves: "work_per_s on hybrid-scale"},
	{Name: "hybrid.switches", Unit: "count", Better: "lower", Moves: "work_per_s on hybrid-scale"},
	{Name: "hybrid.rebuilds", Unit: "count", Better: "lower", Moves: "work_per_s on hybrid-scale"},
	{Name: "hybrid.fluid_steps", Unit: "count", Better: "lower", Moves: "work_per_s on hybrid-scale"},
	{Name: "hybrid.exact_time_frac", Unit: "ratio", Better: "lower", Moves: "work_per_s on hybrid-scale"},
	{Name: "hybrid.leap_time_frac", Unit: "ratio", Better: "higher", Moves: "work_per_s on hybrid-scale"},
	{Name: "hybrid.fluid_time_frac", Unit: "ratio", Better: "higher", Moves: "work_per_s on hybrid-scale"},
	{Name: "hybrid.run_s", Unit: "s", Better: "lower", Moves: "work_per_s on hybrid-scale"},
	{Name: "hybrid.ns_per_simtime", Unit: "ns", Better: "lower", Moves: "work_per_s on hybrid-scale"},
	{Name: "hybrid.self_s", Unit: "s", Better: "lower", Moves: "wall_s on hybrid-scale"},

	{Name: "markov.states", Unit: "count", Better: "lower", Moves: "tasks_per_s and task_ms_p50 on exact-solve"},
	{Name: "markov.build_s", Unit: "s", Better: "lower", Moves: "tasks_per_s and task_ms_p50 on exact-solve"},
	{Name: "markov.solve_s", Unit: "s", Better: "lower", Moves: "tasks_per_s and task_ms_p50 on exact-solve"},
	{Name: "markov.iterations", Unit: "count", Better: "lower", Moves: "tasks_per_s and task_ms_p50 on exact-solve"},
	{Name: "markov.iters_per_s", Unit: "1/s", Better: "higher", Moves: "tasks_per_s and task_ms_p50 on exact-solve"},
	{Name: "markov.boundary_mass_max", Unit: "ratio", Better: "lower", Moves: "agree_frac on exact-solve"},
	{Name: "markov.self_s", Unit: "s", Better: "lower", Moves: "wall_s on exact-solve"},

	{Name: "trace.coverage", Unit: "ratio", Better: "higher", Moves: "none: share of traced wall time inside layer spans"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower", Moves: "none: traced round wall over untraced round wall, minus 1"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Moves: "none: spans recorded per traced round"},
}

// median returns the middle value (mean of the two middle ones for an even
// count); NaN for no values.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile (0..100) by linear interpolation
// between closest ranks; NaN for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that has at least
// ten samples beyond it among n samples — the highest percentile a sample
// of that size supports — and false when even the median has fewer.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}
