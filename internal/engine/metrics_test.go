package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestPoolMetricsDeterministicCounts: the count-valued pool metrics —
// replicas started/completed/failed, busy and queue-wait histogram counts —
// are exact and identical at any worker-pool size, even though the timing
// values inside them are wall-clock dependent. This is the metrics half of
// the engine determinism contract.
func TestPoolMetricsDeterministicCounts(t *testing.T) {
	defer telemetry.SetDefault(nil)
	defer trace.SetDefault(nil)
	const replicas = 24
	for _, workers := range []int{1, 4} {
		for _, traced := range []bool{false, true} { // traced: telemetry and tracing both on
			var tr *trace.Tracer
			if traced {
				tr = trace.New(trace.Config{Stream: io.Discard})
			}
			trace.SetDefault(tr)
			reg := telemetry.New()
			telemetry.SetDefault(reg)
			job := Job{
				Name: "metrics",
				Backend: Func{Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
					return Sample{"x": float64(rep)}, nil
				}},
				Replicas: replicas,
				Seed:     1,
				Workers:  workers,
			}
			if _, err := Run(context.Background(), job); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			snap := reg.Snapshot()
			if got := snap.Counters[telemetry.EngineJobs]; got != 1 {
				t.Errorf("workers=%d: jobs = %d, want 1", workers, got)
			}
			for _, c := range []struct {
				name string
				want uint64
			}{
				{telemetry.EngineReplicasStarted, replicas},
				{telemetry.EngineReplicasCompleted, replicas},
				{telemetry.EngineReplicasFailed, 0},
			} {
				if got := snap.Counters[c.name]; got != c.want {
					t.Errorf("workers=%d: %s = %d, want %d", workers, c.name, got, c.want)
				}
			}
			if got := snap.Histograms[telemetry.EngineReplicaBusyNS].Count; got != replicas {
				t.Errorf("workers=%d: busy histogram count = %d, want %d", workers, got, replicas)
			}
			if got := snap.Histograms[telemetry.EngineQueueWaitNS].Count; got != replicas {
				t.Errorf("workers=%d: wait histogram count = %d, want %d", workers, got, replicas)
			}
			// Per-worker labeled busy series exist for every pool slot.
			for w := 0; w < workers; w++ {
				name := telemetry.Labeled(telemetry.EngineWorkerBusyNS, "worker", fmt.Sprint(w))
				if _, ok := snap.Counters[name]; !ok {
					t.Errorf("workers=%d: missing labeled series %s", workers, name)
				}
			}
			trace.SetDefault(nil)
		}
	}
}

// TestPoolMetricsFailures: a failing replica lands in the failed counter,
// and started still counts every launched replica.
func TestPoolMetricsFailures(t *testing.T) {
	defer telemetry.SetDefault(nil)
	reg := telemetry.New()
	telemetry.SetDefault(reg)
	boom := errors.New("boom")
	job := Job{
		Name: "failing",
		Backend: Func{Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
			if rep == 3 {
				return nil, boom
			}
			return Sample{"x": 1}, nil
		}},
		Replicas: 8,
		Seed:     1,
		Workers:  1, // serial: stops handing out work at the first failure
	}
	if _, err := Run(context.Background(), job); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.EngineReplicasFailed]; got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
	if got := snap.Counters[telemetry.EngineReplicasStarted]; got != 4 {
		t.Errorf("started = %d, want 4 (replicas 0-3)", got)
	}
	if got := snap.Counters[telemetry.EngineReplicasCompleted]; got != 3 {
		t.Errorf("completed = %d, want 3", got)
	}
}

// TestPoolDisabledNoMetrics: with no registry installed the pool must not
// create one as a side effect.
func TestPoolDisabledNoMetrics(t *testing.T) {
	telemetry.SetDefault(nil)
	job := Job{
		Name: "off",
		Backend: Func{Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
			return Sample{"x": 1}, nil
		}},
		Replicas: 4,
		Seed:     1,
		Workers:  2,
	}
	if _, err := Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if telemetry.Default() != nil {
		t.Error("pool installed a registry")
	}
}

// TestPoolNestedAccounting: a Workers: 1 job run inside each replica of a
// two-worker pool is accounted to the enclosing worker. Its time is counted
// once — the per-worker busy counters sum to at most the pool's capacity,
// 2 × the outer Run's wall time — and its replica spans land on the
// enclosing worker's track, inside that worker's outer replica span, with
// no worker.loop span of its own.
func TestPoolNestedAccounting(t *testing.T) {
	defer telemetry.SetDefault(nil)
	defer trace.SetDefault(nil)
	reg := telemetry.New()
	telemetry.SetDefault(reg)
	var stream bytes.Buffer
	tr := trace.New(trace.Config{Stream: &stream})
	trace.SetDefault(tr)

	const outerReps, innerReps = 8, 3
	inner := Job{
		Name: "inner",
		Backend: Func{Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
			time.Sleep(2 * time.Millisecond)
			return Sample{"x": r.Float64()}, nil
		}},
		Replicas: innerReps,
		Workers:  1,
	}
	outer := Job{
		Name: "outer",
		Backend: Func{Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
			job := inner
			job.Seed = r.Uint64()
			res, err := Run(ctx, job)
			if err != nil {
				return nil, err
			}
			return Sample{"x": res.Mean("x")}, nil
		}},
		Replicas: outerReps,
		Seed:     1,
		Workers:  2,
	}
	start := time.Now()
	if _, err := Run(context.Background(), outer); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	trace.SetDefault(nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	var busy uint64
	for w := 0; w < 2; w++ {
		busy += snap.Counters[telemetry.Labeled(telemetry.EngineWorkerBusyNS, "worker", fmt.Sprint(w))]
	}
	if busy > uint64(2*wall) {
		t.Errorf("worker busy sums to %v over a %v run on 2 workers: nested time counted twice",
			time.Duration(busy), wall)
	}
	if got, want := snap.Counters[telemetry.EngineReplicasStarted], uint64(outerReps*(1+innerReps)); got != want {
		t.Errorf("replicas started = %d, want %d (outer and inner)", got, want)
	}

	spans, loops := replicaSpansByTrack(t, stream.Bytes())
	if loops != 2 {
		t.Errorf("worker.loop spans = %d, want 2 (nested pools add none)", loops)
	}
	total := 0
	for track, ss := range spans {
		if track != "worker/0" && track != "worker/1" {
			t.Errorf("%d replica spans on track %q", len(ss), track)
		}
		nested := 0
		for i, s := range ss {
			for j, o := range ss {
				if i != j && o.ts <= s.ts && s.ts+s.dur <= o.ts+o.dur {
					nested++
					break
				}
			}
		}
		if nested == 0 {
			t.Errorf("no inner replica spans nested on %s", track)
		}
		t.Logf("%s: %d replica spans, %d nested", track, len(ss), nested)
		total += nested
	}
	if total != outerReps*innerReps {
		t.Errorf("nested replica spans = %d, want %d", total, outerReps*innerReps)
	}
}

// span is one parsed Chrome trace span, in nanoseconds.
type span struct{ ts, dur int64 }

// replicaSpansByTrack parses a streamed Chrome trace and returns the
// replica spans grouped by track name, plus the number of worker.loop
// spans.
func replicaSpansByTrack(t *testing.T, doc []byte) (map[string][]span, int) {
	t.Helper()
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	tracks := map[int]string{}
	for _, e := range parsed.TraceEvents {
		if e.Ph == "M" {
			tracks[e.Tid] = e.Args.Name
		}
	}
	ns := func(us float64) int64 { return int64(math.Round(us * 1e3)) }
	spans := map[string][]span{}
	loops := 0
	for _, e := range parsed.TraceEvents {
		switch e.Name {
		case "replica":
			spans[tracks[e.Tid]] = append(spans[tracks[e.Tid]], span{ns(e.TS), ns(e.Dur)})
		case "worker.loop":
			loops++
		}
	}
	return spans, loops
}
