package kernel

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestTelemetryOnOverhead enforces the telemetry acceptance bound: with a
// registry installed, Kernel.Step — whose per-event cost is one batched
// watermark check (see eventBatch in instrument.go) plus a sharded atomic add
// every 1024 events — must stay within 2% of the telemetry-disabled loop.
// Methodology mirrors TestTapOffOverhead: interleaved rounds, compare
// minima, small absolute slack for timer granularity. Skipped in -short
// mode and under the race detector.
func TestTelemetryOnOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
	const (
		iters  = 400_000
		rounds = 9
	)
	mkKernel := func(reg *telemetry.Registry) (*birthDeath, *Kernel) {
		telemetry.SetDefault(reg)
		p := &birthDeath{lambda: 2, mu: 1, n: 100}
		return p, New(rng.New(1), p) // binds (or skips) metrics at construction
	}
	defer telemetry.SetDefault(nil)

	reg := telemetry.New()
	minOn, minOff := time.Duration(1<<62), time.Duration(1<<62)
	var onKernel *Kernel
	for r := 0; r < rounds; r++ {
		p, k := mkKernel(reg)
		if d := timeSteps(p, k, iters, k.Step); d < minOn {
			minOn = d
		}
		onKernel = k
		p, k = mkKernel(nil)
		if d := timeSteps(p, k, iters, k.Step); d < minOff {
			minOff = d
		}
	}
	// The enabled kernels flushed batches along the way; flush the last
	// round's remainder and confirm the registry saw real traffic — guards
	// against the gate silently measuring a disabled path.
	onKernel.FlushMetrics()
	if got := reg.CounterValue(telemetry.KernelEvents); got < iters {
		t.Fatalf("telemetry-on rounds recorded %d events, want >= %d", got, iters)
	}

	limit := minOff + minOff/50 + 2*time.Millisecond
	t.Logf("step (telemetry on): %v, off: %v over %d iters (min of %d rounds)",
		minOn, minOff, iters, rounds)
	if minOn > limit {
		t.Errorf("telemetry-on Step overhead too high: %v vs disabled %v (limit %v)",
			minOn, minOff, limit)
	}
}

// TestKernelMetricsExact: the batched kernel_events_total is exact after
// FlushMetrics regardless of where the run stops relative to the batch
// boundary, and halts / no-progress land in their counters immediately.
// The traced leg runs telemetry and tracing together through the one
// watermark: the batch spans then cover exactly the counted events, one
// span per started batch.
func TestKernelMetricsExact(t *testing.T) {
	defer telemetry.SetDefault(nil)
	defer trace.SetDefault(nil)
	for _, steps := range []int{1, eventBatch - 1, eventBatch, eventBatch + 1, 3*eventBatch + 17} {
		for _, traced := range []bool{false, true} {
			reg := telemetry.New()
			telemetry.SetDefault(reg)
			var (
				stream bytes.Buffer
				tr     *trace.Tracer
			)
			if traced {
				tr = trace.New(trace.Config{Stream: &stream})
			}
			trace.SetDefault(tr)
			p := &birthDeath{lambda: 2, mu: 1, n: 100}
			k := New(rng.New(1), p)
			for i := 0; i < steps; i++ {
				if err := k.Step(); err != nil {
					t.Fatalf("steps=%d: %v", steps, err)
				}
			}
			k.FlushMetrics()
			if got := reg.CounterValue(telemetry.KernelEvents); got != uint64(steps) {
				t.Errorf("steps=%d: kernel_events_total = %d", steps, got)
			}
			k.FlushMetrics() // idempotent
			if got := reg.CounterValue(telemetry.KernelEvents); got != uint64(steps) {
				t.Errorf("steps=%d: double flush changed the counter to %d", steps, got)
			}
			if !traced {
				continue
			}
			if k.mark.events != uint64(steps) {
				t.Errorf("steps=%d traced: double flush moved the mark to %d", steps, k.mark.events)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			spans, covered := batchSpans(t, stream.Bytes())
			if want := (steps + eventBatch - 1) / eventBatch; spans != want || covered != int64(steps) {
				t.Errorf("steps=%d traced: %d kernel.batch spans covering %d events, want %d covering %d",
					steps, spans, covered, want, steps)
			}
		}
	}
	trace.SetDefault(nil)

	// ErrNoProgress increments its counter and flushes the batch remainder.
	reg := telemetry.New()
	telemetry.SetDefault(reg)
	dead := &birthDeath{lambda: 0, mu: 0, n: 0}
	k := New(rng.New(1), dead)
	if err := k.Step(); err != ErrNoProgress {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
	if got := reg.CounterValue(telemetry.KernelNoProgress); got != 1 {
		t.Errorf("kernel_no_progress_total = %d, want 1", got)
	}
}

// batchSpans parses a streamed Chrome trace and returns the number of
// kernel.batch spans and the events they cover (the sum of their
// arguments).
func batchSpans(t *testing.T, doc []byte) (spans int, covered int64) {
	t.Helper()
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				V int64 `json:"v"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	for _, e := range parsed.TraceEvents {
		if e.Name == "kernel.batch" {
			spans++
			covered += e.Args.V
		}
	}
	return spans, covered
}
