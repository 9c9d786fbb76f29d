package engine

import (
	"context"
	"strconv"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Pool instrumentation — telemetry and tracing — goes through one job-level
// probe. A nil *probe (both disabled) turns every site in pool.go into a
// nil-check no-op that reads no clock, so the disabled pool is the
// uninstrumented one. Enabled, the probe reads one clock per replica edge —
// the feeder's send, the worker's pickup, the replica's end — and that one
// stamp feeds every consumer: the busy and queue-wait histograms, the
// per-worker busy/idle counters, the replica and replica.wait spans, and
// the straggler check. With tracing on the stamp is the end of the span the
// edge closes (trace clock); otherwise it is the probe's own clock.
// Granularity is per replica, never per kernel event. Counts are
// deterministic at any worker count (TestPoolMetricsDeterministicCounts);
// the timings are wall-clock and never feed records, streams, or sinks, so
// instrumented and plain runs emit byte-identical outputs.
//
// Nested pools: an instrumented worker marks the context its replicas run
// under with its trace track. A pool that finds the mark (a Workers: 1 job
// inside a sweep cell, say) runs inside the enclosing worker's busy time,
// so it records replica counts and histograms but no worker busy/idle
// counters and no worker.loop span, and writes its replica spans on the
// enclosing worker's track: worker time is counted once.

// stragglerMinCount is how many replicas the busy histogram must hold
// before its p99 is treated as a meaningful straggler threshold.
const stragglerMinCount = 64

// outerWorker is the context key of the nested-pool mark; its value is the
// enclosing worker's trace track (nil when tracing is off).
type outerWorker struct{}

// probe holds one job's instrumentation handles. Telemetry handles are nil
// (no-op) when no registry is installed; tr is nil when tracing is off.
type probe struct {
	reg       *telemetry.Registry
	started   *telemetry.Counter
	completed *telemetry.Counter
	failed    *telemetry.Counter
	busy      *telemetry.Histogram
	wait      *telemetry.Histogram

	tr   *trace.Tracer
	base time.Time // clock origin when tracing is off

	// sent holds the feeder's send stamps (parallel pools only; a serial
	// pool hands replicas straight to its loop and records zero wait).
	// Written before the channel send and read after the receive, so it
	// needs no lock.
	sent []int64

	nested bool
	outer  *trace.Buf // the enclosing worker's track when nested
}

// newProbe binds the job's handles, or returns nil when telemetry and
// tracing are both off.
func newProbe(ctx context.Context, n, workers int) *probe {
	reg, tr := telemetry.Default(), trace.Default()
	if reg == nil && tr == nil {
		return nil
	}
	reg.Counter(telemetry.EngineJobs).Inc()
	p := &probe{
		reg:       reg,
		started:   reg.Counter(telemetry.EngineReplicasStarted),
		completed: reg.Counter(telemetry.EngineReplicasCompleted),
		failed:    reg.Counter(telemetry.EngineReplicasFailed),
		busy:      reg.Histogram(telemetry.EngineReplicaBusyNS),
		wait:      reg.Histogram(telemetry.EngineQueueWaitNS),
		tr:        tr,
		base:      time.Now(),
	}
	if workers > 1 {
		p.sent = make([]int64, n)
	}
	p.outer, p.nested = ctx.Value(outerWorker{}).(*trace.Buf)
	return p
}

// now reads the probe clock: the trace clock when tracing, so stamps and
// spans share one timeline, else nanoseconds since the probe was bound.
func (p *probe) now() int64 {
	if p.tr != nil {
		return p.tr.Now()
	}
	return int64(time.Since(p.base))
}

// send stamps replica i as handed to the workers.
func (p *probe) send(i int) {
	if p != nil && p.sent != nil {
		p.sent[i] = p.now()
	}
}

// worker is one pool worker's view of the probe.
type worker struct {
	p       *probe
	tb      *trace.Buf      // this worker's track, or the enclosing one
	busyCt  telemetry.Count // zero when nested
	idleCt  telemetry.Count // zero when nested
	loop0   int64
	busy    int64 // summed replica busy time, for the idle counter
	handled int64
}

// worker binds worker w's handles — its labeled busy/idle series
// (engine_worker_busy_ns_total{worker="w"}) and its "worker/w" track, shared
// by every job in the process so the timeline shows pool reuse — and starts
// its loop clock. A nested pool's workers bind neither and write on the
// enclosing worker's track. Nil when the probe is.
func (p *probe) worker(w int) *worker {
	if p == nil {
		return nil
	}
	if p.nested {
		return &worker{p: p, tb: p.outer}
	}
	id := strconv.Itoa(w)
	wk := &worker{
		p:      p,
		tb:     p.tr.Track("worker/" + id),
		busyCt: p.reg.Counter(telemetry.Labeled(telemetry.EngineWorkerBusyNS, "worker", id)).Grab(),
		idleCt: p.reg.Counter(telemetry.Labeled(telemetry.EngineWorkerIdleNS, "worker", id)).Grab(),
	}
	wk.loop0 = p.now()
	return wk
}

// mark returns ctx carrying the nested-pool mark for this worker's
// replicas (ctx itself when instrumentation is off).
func (wk *worker) mark(ctx context.Context) context.Context {
	if wk == nil {
		return ctx
	}
	return context.WithValue(ctx, outerWorker{}, wk.tb)
}

// stamp reads the edge's one clock: it closes the named span from start on
// the worker's track and returns the span's end, or reads the probe clock
// when tracing is off.
func (wk *worker) stamp(name string, start, arg int64) int64 {
	if wk.tb != nil {
		return wk.tb.Span(name, "engine", start, arg)
	}
	return wk.p.now()
}

// start records replica i's pickup and returns its start stamp, which also
// closes the replica's queue wait.
func (wk *worker) start(i int) int64 {
	if wk == nil {
		return 0
	}
	p := wk.p
	p.started.Inc()
	if p.sent == nil {
		p.wait.Observe(0)
		return p.now()
	}
	t0 := wk.stamp("replica.wait", p.sent[i], int64(i))
	p.wait.Observe(uint64(max(t0-p.sent[i], 0)))
	return t0
}

// end records replica i's completion: busy time into the histogram and the
// worker's counter, the replica span, the outcome, and — on success with
// tracing on — a straggler anomaly when the busy time reaches the p99 of
// the job-wide busy histogram (the one /vars reports) once enough replicas
// have finished for the tail to mean something. In flight-recorder mode
// the mark dumps the rings, preserving the trace tail around a straggler.
func (wk *worker) end(i int, t0 int64, err error) {
	if wk == nil {
		return
	}
	p := wk.p
	d := max(wk.stamp("replica", t0, int64(i))-t0, 0)
	wk.busy += d
	wk.handled++
	wk.busyCt.Add(uint64(d))
	p.busy.Observe(uint64(d))
	if err != nil {
		p.failed.Inc()
		wk.tb.Anomaly("replica.error", int64(i))
		return
	}
	p.completed.Inc()
	if wk.tb != nil && p.busy.Count() >= stragglerMinCount && uint64(d) >= p.busy.Quantile(0.99) {
		wk.tb.Anomaly("replica.straggler", int64(i))
	}
}

// finish closes the worker's loop: its worker.loop lifecycle span and its
// idle time (loop wall time minus busy time). No-op for nested pools,
// whose time belongs to the enclosing worker.
func (wk *worker) finish() {
	if wk == nil || wk.p.nested {
		return
	}
	end := wk.stamp("worker.loop", wk.loop0, wk.handled)
	if idle := end - wk.loop0 - wk.busy; idle > 0 {
		wk.idleCt.Add(uint64(idle))
	}
}
