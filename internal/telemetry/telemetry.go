// Package telemetry is the runtime metrics substrate shared by the kernel,
// the Monte-Carlo engine, the sweep subsystem, and the cmd binaries: a
// registry of named counters, gauges, and log₂-bucket histograms built for
// the repository's zero-cost-when-off discipline (the same pattern as
// kernel.Tap).
//
// The cost model:
//
//   - Disabled (no registry installed): every handle is nil (or holds a nil
//     slot) and every operation is an inlined nil-check no-op — telemetry
//     compiles down to one predictable branch at each instrumentation site,
//     which the kernel's overhead gate pins below 2% of the event loop.
//   - Enabled: counters are sharded across padded cache lines; a hot
//     component Grabs a private Count slot once at construction and bumps
//     it with uncontended atomic adds (the kernel additionally batches its
//     per-event increments, flushing every eventBatch steps), so the hot
//     path stays allocation-free and contention-free at any worker count.
//
// Telemetry is strictly off the deterministic output path: nothing here
// consumes randomness, writes to stdout, or feeds back into a simulation.
// Registries surface through the HTTP exposition endpoints (/metrics,
// /vars, /healthz, /debug/pprof — see Serve) and the end-of-run Report.
package telemetry

import (
	"math/bits"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Metric names shared across packages. Instrumenting packages and the run
// report agree on these; keeping them here (the leaf package) prevents
// drift.
const (
	// KernelEvents counts committed kernel events (including no-ops)
	// across every kernel in the process.
	KernelEvents = "kernel_events_total"
	// KernelHalts counts runs stopped early by an observer (ErrHalted).
	KernelHalts = "kernel_halts_total"
	// KernelNoProgress counts zero-total-rate steps (ErrNoProgress).
	KernelNoProgress = "kernel_no_progress_total"

	// EngineJobs counts engine jobs run.
	EngineJobs = "engine_jobs_total"
	// EngineReplicasStarted / Completed / Failed track replica lifecycle.
	EngineReplicasStarted   = "engine_replicas_started_total"
	EngineReplicasCompleted = "engine_replicas_completed_total"
	EngineReplicasFailed    = "engine_replicas_failed_total"
	// EngineReplicaBusyNS is the histogram of per-replica busy time (ns).
	EngineReplicaBusyNS = "engine_replica_busy_ns"
	// EngineQueueWaitNS is the histogram of replica queue wait (ns): time
	// between the feeder handing an index out and a worker picking it up.
	EngineQueueWaitNS = "engine_queue_wait_ns"
	// EngineWorkerBusyNS / IdleNS are per-worker labeled counters (ns),
	// e.g. engine_worker_busy_ns_total{worker="3"}.
	EngineWorkerBusyNS = "engine_worker_busy_ns_total"
	EngineWorkerIdleNS = "engine_worker_idle_ns_total"

	// Sweep counters mirror sweep.Stats cumulatively across batches.
	SweepEvaluated = "sweep_cells_evaluated_total"
	SweepCacheHits = "sweep_cache_hits_total"
	SweepDeduped   = "sweep_cells_deduped_total"
	SweepRounds    = "sweep_rounds_total"

	// ObsObservers counts observers attached to obs.Set pipelines;
	// ObsSnapshots counts sealed pipelines snapshotted into records.
	ObsObservers = "obs_observers_total"
	ObsSnapshots = "obs_snapshots_total"

	// Hybrid counters mirror hybrid.Stats cumulatively across replicas:
	// events fired per regime, tau-leap steps taken/rejected, regime
	// switches, and fluid ODE steps. hybrid_exact_events_total counts the
	// events the embedded exact kernel ran (also included in
	// kernel_events_total, which the inner kernel reports itself).
	HybridExactEvents = "hybrid_exact_events_total"
	HybridLeapEvents  = "hybrid_leap_events_total"
	HybridLeaps       = "hybrid_leaps_total"
	HybridLeapRejects = "hybrid_leap_rejects_total"
	HybridSwitches    = "hybrid_switches_total"
	HybridFluidSteps  = "hybrid_fluid_steps_total"

	// Store counters track the columnar result store (internal/store):
	// column pages and framed bytes moved in each direction, blocks
	// salvaged by scan recovery from torn files, and decoded-block cache
	// hits on the read path.
	StorePagesWritten    = "store_pages_written_total"
	StorePagesRead       = "store_pages_read_total"
	StoreBytesWritten    = "store_bytes_written_total"
	StoreBytesRead       = "store_bytes_read_total"
	StoreBlocksRecovered = "store_blocks_recovered_total"
	StoreBlockCacheHits  = "store_block_cache_hits_total"

	// ProgressDone / ProgressTotal are gauges mirroring the most recent
	// heartbeat observation, so /vars shows live completion.
	ProgressDone  = "progress_done"
	ProgressTotal = "progress_total"
)

// Labeled renders a metric name with one Prometheus label pair attached,
// e.g. Labeled(EngineWorkerBusyNS, "worker", "3") →
// `engine_worker_busy_ns_total{worker="3"}`. The registry treats the result
// as an ordinary (distinct) metric name; the Prometheus writer groups
// labeled series under one # TYPE line for the base name.
func Labeled(name, label, value string) string {
	return name + "{" + label + `="` + value + `"}`
}

// Registry is a set of named metrics. The zero registry is not usable; New
// builds one. All methods are safe for concurrent use, and every getter is
// nil-safe: calling Counter/Gauge/Histogram on a nil *Registry returns a
// nil metric whose operations no-op, so call sites never branch on
// enablement themselves.
type Registry struct {
	start  time.Time
	shards int

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New builds an empty registry. Counters are sharded to the next power of
// two ≥ GOMAXPROCS (capped at 64 shards), so concurrent writers land on
// distinct cache lines in the common case.
func New() *Registry {
	n := runtime.GOMAXPROCS(0)
	shards := 1
	for shards < n {
		shards <<= 1
	}
	if shards > 64 {
		shards = 64
	}
	return &Registry{
		start:    time.Now(),
		shards:   shards,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Start returns the registry's creation time — the origin for uptime and
// events/sec in the run report.
func (r *Registry) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.start
}

// defaultReg is the process-wide registry consulted by instrumented
// components at construction time. Nil (the default) disables telemetry.
var defaultReg atomic.Pointer[Registry]

// Default returns the installed process registry, or nil when telemetry is
// disabled.
func Default() *Registry { return defaultReg.Load() }

// SetDefault installs (or with nil removes) the process registry.
// Components pick it up at their next construction; handles already
// grabbed keep writing to the registry they came from.
func SetDefault(r *Registry) { defaultReg.Store(r) }

// Inc bumps a counter on the default registry by one — the convenience
// entry point for low-frequency sites (observer attachment, sweep batch
// accounting). A disabled registry makes it a no-op.
func Inc(name string) { Default().Counter(name).Add(1) }

// Add bumps a counter on the default registry by n. No-op when disabled
// or when n is zero.
func Add(name string, n uint64) {
	if n != 0 {
		Default().Counter(name).Add(n)
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op counter) when the registry is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name, shards: make([]counterShard, r.shards)}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil registry →
// nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named log₂-bucket histogram, creating it on first
// use. Nil registry → nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{name: name}
		r.hists[name] = h
	}
	return h
}

// counterShard is one cache-line-padded counter slot. 64-byte alignment
// keeps two workers' hot slots from false-sharing a line.
type counterShard struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter. Hot components
// Grab a private Count slot once and bump it without contention; rare
// events use Add/Inc directly.
type Counter struct {
	name   string
	next   atomic.Uint32
	shards []counterShard
}

// Grab returns a Count handle bound to the next shard, round-robin.
// Concurrent grabbers land on distinct shards until the shard count wraps;
// a wrapped shard is still correct (atomic adds), just potentially
// contended. Grab on a nil counter returns the no-op handle.
func (c *Counter) Grab() Count {
	if c == nil {
		return Count{}
	}
	i := int(c.next.Add(1)-1) % len(c.shards)
	return Count{v: &c.shards[i].v}
}

// Add bumps the counter's first shard — the uncontended path for
// low-frequency call sites. Nil-safe.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.shards[0].v.Add(n)
	}
}

// Inc is Add(1). Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards. The sum is exact once writers quiesce; during a
// run it is a consistent-enough snapshot for scraping (each shard load is
// atomic).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var total uint64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Count is the hot-path handle into one counter shard. The zero Count is
// the no-op handle a disabled registry yields: Live reports false and Add
// is one predictable branch.
type Count struct {
	v *atomic.Uint64
}

// Live reports whether the handle is bound to a real shard — the guard hot
// loops check before doing any extra bookkeeping.
func (c Count) Live() bool { return c.v != nil }

// Add bumps the bound shard. No-op on the zero handle.
func (c Count) Add(n uint64) {
	if c.v != nil {
		c.v.Add(n)
	}
}

// Inc is Add(1).
func (c Count) Inc() { c.Add(1) }

// Gauge is an instantaneous int64 value (worker pool sizes, live progress).
// All methods are nil-safe.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of log₂ buckets: bucket 0 holds v == 0 and
// bucket i (1 ≤ i ≤ 64) holds 2^(i−1) ≤ v < 2^i, i.e. bits.Len64(v) == i.
const histBuckets = 65

// Histogram is a fixed-shape log₂-bucket histogram of uint64 observations
// (durations in nanoseconds, sizes, counts). Observe is one bucket index
// computation plus three uncontended atomic adds — cheap enough for
// per-replica granularity, and by construction the bucket counts always
// sum to Count (TestHistogramBucketSumInvariant pins this under
// concurrency).
type Histogram struct {
	name    string
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns the q-quantile (0 < q ≤ 1) of the observations as the
// inclusive upper bound of the log₂ bucket holding the rank-⌈q·count⌉
// observation. The result is therefore an upper-bound approximation with
// at most one power of two of slack — good enough to rank latency tails
// and detect stragglers, which is all the report and the engine's
// flight-recorder trigger ask of it. Returns 0 on a nil or empty
// histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if q*float64(total) > float64(rank) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// bucketUpper is bucket i's inclusive upper bound as a value (MaxUint64
// for the top bucket).
func bucketUpper(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<i - 1
}

// HistogramSnapshot is a point-in-time copy of a histogram for /vars and
// the run report. Buckets maps the bucket's inclusive upper bound
// (rendered as a decimal string; "+Inf" for the top bucket) to its count;
// zero buckets are omitted. P50/P95/P99 are log₂-bucket-upper-bound
// approximations (see Histogram.Quantile) — the report's latency
// quantiles, not exact order statistics.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     uint64            `json:"sum"`
	P50     uint64            `json:"p50"`
	P95     uint64            `json:"p95"`
	P99     uint64            `json:"p99"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// bucketBound renders bucket i's inclusive upper bound.
func bucketBound(i int) string {
	if i == 0 {
		return "0"
	}
	if i >= 64 {
		return "+Inf"
	}
	return strconv.FormatUint(uint64(1)<<i-1, 10)
}

// snapshot copies the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[string]uint64)
			}
			s.Buckets[bucketBound(i)] = n
		}
	}
	return s
}

// Snapshot is a point-in-time copy of every metric in a registry — the
// /vars payload and the raw material of the run report. Build identifies
// the producing binary so every artifact is attributable to a commit.
type Snapshot struct {
	UptimeSeconds float64                      `json:"uptime_seconds"`
	Build         BuildInfo                    `json:"build"`
	Counters      map[string]uint64            `json:"counters"`
	Gauges        map[string]int64             `json:"gauges,omitempty"`
	Histograms    map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry. Nil registry → zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Build:         Build(),
		Counters:      make(map[string]uint64, len(r.counters)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// CounterValue reads one counter by name without creating it (0 when
// absent or when the registry is nil).
func (r *Registry) CounterValue(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Value()
}

// sortedNames returns a map's keys sorted — deterministic exposition order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
