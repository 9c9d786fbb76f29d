package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// traceNames runs one job with a streaming tracer installed and returns the
// per-name event counts from the resulting Chrome trace, plus the job's
// deterministic aggregate for comparison against an untraced run.
func traceNames(t *testing.T, workers int, job Job) (map[string]int, *Result) {
	t.Helper()
	var buf bytes.Buffer
	tr := trace.New(trace.Config{Stream: &buf})
	trace.SetDefault(tr)
	res, err := Run(context.Background(), job)
	trace.SetDefault(nil)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("workers=%d: close: %v", workers, err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("workers=%d: trace not valid JSON: %v", workers, err)
	}
	names := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" { // skip thread_name metadata
			names[e.Name]++
		}
	}
	return names, res
}

// TestPoolTraceSpans: a traced job records one busy span per replica, a
// lifecycle span per parallel worker, the job and aggregation spans — and
// the deterministic aggregate matches an untraced run exactly.
func TestPoolTraceSpans(t *testing.T) {
	defer trace.SetDefault(nil)
	defer telemetry.SetDefault(nil)
	const replicas = 24
	job := Job{
		Name: "traced",
		Backend: Func{Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
			return Sample{"x": r.Float64()}, nil
		}},
		Replicas: replicas,
		Seed:     7,
	}
	base, err := Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for _, metered := range []bool{false, true} { // metered: telemetry and tracing both on
			var reg *telemetry.Registry
			if metered {
				reg = telemetry.New()
			}
			telemetry.SetDefault(reg)
			job.Workers = workers
			names, res := traceNames(t, workers, job)
			if names["replica"] != replicas {
				t.Errorf("workers=%d: replica spans = %d, want %d", workers, names["replica"], replicas)
			}
			if names["job:traced"] != 1 || names["job.aggregate"] != 1 {
				t.Errorf("workers=%d: job/aggregate spans = %d/%d, want 1/1",
					workers, names["job:traced"], names["job.aggregate"])
			}
			if names["worker.loop"] != workers {
				t.Errorf("workers=%d: worker.loop spans = %d", workers, names["worker.loop"])
			}
			for _, k := range base.Keys() {
				if res.Mean(k) != base.Mean(k) {
					t.Errorf("workers=%d: traced mean %s = %v, untraced %v",
						workers, k, res.Mean(k), base.Mean(k))
				}
			}

			telemetry.SetDefault(nil)
		}
	}
}

// TestPoolTraceReplicaError: a failing replica is marked as an anomaly on
// its worker's track.
func TestPoolTraceReplicaError(t *testing.T) {
	defer trace.SetDefault(nil)
	boom := errors.New("boom")
	var buf bytes.Buffer
	tr := trace.New(trace.Config{Stream: &buf})
	trace.SetDefault(tr)
	_, err := Run(context.Background(), Job{
		Name: "failing",
		Backend: Func{Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
			if rep == 3 {
				return nil, boom
			}
			return Sample{"x": 1}, nil
		}},
		Replicas: 8,
		Workers:  1,
	})
	trace.SetDefault(nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"replica.error"`)) {
		t.Error("trace missing replica.error anomaly mark")
	}
}

// TestPoolTraceDisabled: with no tracer installed the pool must not create
// one as a side effect.
func TestPoolTraceDisabled(t *testing.T) {
	trace.SetDefault(nil)
	_, err := Run(context.Background(), Job{
		Name: "off",
		Backend: Func{Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
			return Sample{"x": 1}, nil
		}},
		Replicas: 4,
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if trace.Default() != nil {
		t.Error("pool installed a tracer")
	}
}
