package kernel

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestTraceOnOverhead enforces the tracing acceptance bound: with a tracer
// installed, Kernel.Step — whose per-event cost is one watermark compare
// plus a mutexed ring write every eventBatch events (see instrument.go) — must
// stay within 2% of the tracing-disabled loop. Methodology mirrors
// TestTelemetryOnOverhead: interleaved rounds, compare minima, small
// absolute slack for timer granularity. Skipped in -short mode and under
// the race detector.
func TestTraceOnOverhead(t *testing.T) {
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
	mkKernel := func(tr *trace.Tracer) (*birthDeath, *Kernel) {
		trace.SetDefault(tr)
		p := &birthDeath{lambda: 2, mu: 1, n: 100}
		return p, New(rng.New(1), p) // binds (or skips) the trace ring at construction
	}
	defer trace.SetDefault(nil)

	// Flight-recorder configuration: rings stay hot and wrap; no stream
	// I/O happens during the measured loop (birthDeath never anomalies).
	tr := trace.New(trace.Config{FlightPath: filepath.Join(t.TempDir(), "flight.json")})
	minOn, minOff := time.Duration(1<<62), time.Duration(1<<62)
	var onKernel *Kernel
	for r := 0; r < rounds; r++ {
		p, k := mkKernel(tr)
		if d := timeSteps(p, k, iters, k.Step); d < minOn {
			minOn = d
		}
		onKernel = k
		p, k = mkKernel(nil)
		if d := timeSteps(p, k, iters, k.Step); d < minOff {
			minOff = d
		}
	}
	// Confirm the traced rounds actually recorded batch spans — guards
	// against the gate silently measuring a disabled path.
	onKernel.FlushMetrics()
	if onKernel.ins.trc == nil || onKernel.mark.events != onKernel.events {
		t.Fatalf("traced kernel did not flush batch spans (mark %d of %d events)",
			onKernel.mark.events, onKernel.events)
	}

	limit := minOff + minOff/50 + 2*time.Millisecond
	t.Logf("step (trace on): %v, off: %v over %d iters (min of %d rounds)",
		minOn, minOff, iters, rounds)
	if minOn > limit {
		t.Errorf("trace-on Step overhead too high: %v vs disabled %v (limit %v)",
			minOn, minOff, limit)
	}
}

// TestKernelTraceBatches: batch spans cover every committed event exactly
// once — the per-1024 boundary in Step plus the FlushMetrics remainder —
// and anomalies dump the flight recorder.
func TestKernelTraceBatches(t *testing.T) {
	dir := t.TempDir()
	for _, steps := range []int{1, eventBatch - 1, eventBatch, eventBatch + 1, 3*eventBatch + 17} {
		path := filepath.Join(dir, "f.json")
		tr := trace.New(trace.Config{FlightPath: path})
		trace.SetDefault(tr)
		p := &birthDeath{lambda: 2, mu: 1, n: 100}
		k := New(rng.New(1), p)
		trace.SetDefault(nil)
		for i := 0; i < steps; i++ {
			if err := k.Step(); err != nil {
				t.Fatalf("steps=%d: %v", steps, err)
			}
		}
		k.FlushMetrics()
		if k.mark.events != uint64(steps) {
			t.Errorf("steps=%d: trace covered %d events", steps, k.mark.events)
		}
		k.FlushMetrics() // idempotent: no empty batch span
		if k.mark.events != uint64(steps) {
			t.Errorf("steps=%d: double flush moved the mark to %d", steps, k.mark.events)
		}
	}

	// ErrNoProgress marks the trace and dumps the flight recorder.
	path := filepath.Join(dir, "noprogress.json")
	tr := trace.New(trace.Config{FlightPath: path})
	trace.SetDefault(tr)
	defer trace.SetDefault(nil)
	dead := &birthDeath{lambda: 0, mu: 0, n: 0}
	k := New(rng.New(1), dead)
	if err := k.Step(); err != ErrNoProgress {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
	if tr.Dumps() != 1 {
		t.Errorf("no-progress dumps = %d, want 1", tr.Dumps())
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("flight file missing: %v", err)
	}
}

// TestKernelOffPathSilent is the deterministic off-path check: a kernel
// built while neither telemetry nor tracing is installed must not touch
// either substrate installed afterwards. Over a run that crosses several
// batch watermarks, halts on its tap and ends on a no-progress step, the
// registry must see zero kernel_* counter adds and the tracer zero ring
// writes.
func TestKernelOffPathSilent(t *testing.T) {
	p := &birthDeath{lambda: 5, mu: 0.001} // climbs towards n = 5000
	k := New(rng.New(3), p)
	reg := telemetry.New()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)
	var stream bytes.Buffer
	tr := trace.New(trace.Config{Stream: &stream})
	trace.SetDefault(tr)
	defer trace.SetDefault(nil)

	k.SetTap(&tapRecorder{stopAt: 3500})
	if reason, err := k.RunUntil(math.Inf(1), 0); reason != StopObserver || err != nil {
		t.Fatalf("RunUntil = %v, %v; want a tap halt", reason, err)
	}
	if k.Events() < 3*eventBatch {
		t.Fatalf("run covered %d events, want several batches", k.Events())
	}
	p.lambda, p.mu = 0, 0
	if err := k.Step(); !errors.Is(err, ErrNoProgress) {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
	k.FlushMetrics()

	for _, name := range []string{telemetry.KernelEvents, telemetry.KernelHalts, telemetry.KernelNoProgress} {
		if v := reg.CounterValue(name); v != 0 {
			t.Errorf("%s = %d with telemetry off at New", name, v)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(stream.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	writes := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" { // thread-name metadata is the tracer's own
			writes++
		}
	}
	if writes != 0 {
		t.Errorf("%d ring writes with tracing off at New", writes)
	}
}
