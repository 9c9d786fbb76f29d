package kernel

import (
	"math"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Instrumentation — telemetry counters and the execution-trace ring — has
// one hook in the kernel. Step never reports per event: it counts events in
// its own field and compares the count with one watermark, due, the event
// count at which the next batch flush falls (math.MaxUint64 when telemetry
// and tracing are both off, so the compare never fires). A flush closes the
// batch in one go: one atomic add to kernel_events_total and one
// "kernel.batch" span covering the batch's wall time, with its event count
// as the argument. Live counters therefore lag a running replica by fewer
// than eventBatch events; FlushMetrics, which RunUntil (and the borderline
// chain's transition loop) calls on exit, closes the last batch so totals and span coverage are
// exact. The overhead gates (TestTelemetryOnOverhead, TestTraceOnOverhead)
// pin the enabled loop within 2% of the disabled one.
//
// Anomalies — ErrNoProgress and observer halts — bump their counter, flush,
// and mark the trace (in flight-recorder mode, dumping the ring tail; see
// internal/trace).

// eventBatch is how many committed events a kernel accumulates between
// instrumentation flushes.
const eventBatch = 1024

// instr holds the kernel's instrumentation handles, bound once in New. The
// zero value (both disabled) makes every use an inlined nil-check no-op.
type instr struct {
	events     telemetry.Count
	halts      telemetry.Count
	noProgress telemetry.Count
	trc        *trace.Buf
}

// bindInstr binds counter shards from the default registry and a ring from
// the shared kernel track pool (GOMAXPROCS rings handed out round-robin, so
// a million-replica run does not grow the track registry), then sets the
// first watermark — or parks it at math.MaxUint64 when neither substrate is
// installed. Called once from New, off the hot path.
func (k *Kernel) bindInstr() {
	reg := telemetry.Default()
	k.ins = instr{
		events:     reg.Counter(telemetry.KernelEvents).Grab(),
		halts:      reg.Counter(telemetry.KernelHalts).Grab(),
		noProgress: reg.Counter(telemetry.KernelNoProgress).Grab(),
		trc:        trace.Default().Kernel(),
	}
	k.due = math.MaxUint64
	if k.ins.events.Live() || k.ins.trc.Live() {
		k.due = eventBatch
		k.mark.t0 = k.ins.trc.Now()
	}
}

// batchMark is where the last flushed batch ended: the event count covered
// so far and the trace-clock start of the open batch.
type batchMark struct {
	events uint64
	t0     int64
}

// FlushMetrics closes the open batch: it pushes the batched event count to
// kernel_events_total and emits the batch's "kernel.batch" span, then moves
// the watermark one batch on. Step calls it at the watermark and run loops
// at run end; it is idempotent and a no-op when instrumentation is off.
func (k *Kernel) FlushMetrics() {
	n := k.events - k.mark.events
	if k.due == math.MaxUint64 || n == 0 {
		return
	}
	k.ins.events.Add(n)
	k.mark.t0 = k.ins.trc.Span("kernel.batch", "kernel", k.mark.t0, int64(n))
	k.mark.events = k.events
	k.due = k.events + eventBatch
}
