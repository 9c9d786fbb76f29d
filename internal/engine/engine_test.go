package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/borderline"
	"repro/internal/codedsim"
	"repro/internal/gf"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/peersim"
	"repro/internal/pieceset"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stability"
)

func testParams() model.Params {
	return model.Params{
		K: 2, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
}

// swarmJob is a small but real Monte-Carlo job over the type-count
// simulator: run to a short horizon, report final population and mean
// occupancy.
func swarmJob(workers int) Job {
	return Job{
		Name: "test-swarm",
		Backend: &SwarmBackend{
			Params: testParams(),
			Measure: func(ctx context.Context, rep int, sw *sim.Swarm) (Sample, error) {
				if _, err := sw.RunUntil(40, 0); err != nil {
					return nil, err
				}
				return Sample{
					"final_n":   float64(sw.N()),
					"occupancy": sw.MeanPeers(),
				}, nil
			},
		},
		Replicas: 12,
		Seed:     7,
		Workers:  workers,
	}
}

// TestDeterministicAcrossWorkerCounts is the engine's core contract: the
// same job must produce identical samples and aggregates for 1, 2, and 8
// workers.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	var ref *Result
	for _, workers := range []int{1, 2, 8} {
		res, err := Run(context.Background(), swarmJob(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.Records, ref.Records) {
			t.Errorf("workers=%d records differ:\n%v\nvs\n%v", workers, res.Records, ref.Records)
		}
		for _, k := range ref.Keys() {
			if got, want := res.Summary(k).Mean(), ref.Summary(k).Mean(); got != want {
				t.Errorf("workers=%d metric %q mean %v != %v", workers, k, got, want)
			}
			if got, want := res.Summary(k).Var(), ref.Summary(k).Var(); got != want {
				t.Errorf("workers=%d metric %q var %v != %v", workers, k, got, want)
			}
		}
	}
}

// TestStreamsIndependentOfWorkerCount pins the stream-splitting contract
// directly: replica i's stream depends only on the base seed.
func TestStreamsIndependentOfWorkerCount(t *testing.T) {
	job := Job{
		Name: "streams",
		Backend: Func{Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
			return Sample{"draw": float64(r.Uint64() >> 11)}, nil
		}},
		Replicas: 32,
		Seed:     99,
	}
	job.Workers = 1
	serial, err := Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	job.Workers = 8
	parallel, err := Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Records, parallel.Records) {
		t.Error("replica streams depend on worker count")
	}
	// And distinct replicas see distinct streams.
	seen := map[float64]bool{}
	for _, rec := range serial.Records {
		if seen[rec.Values["draw"]] {
			t.Errorf("duplicate first draw %v across replicas", rec.Values["draw"])
		}
		seen[rec.Values["draw"]] = true
	}
}

func TestStreamForOverridesDerivation(t *testing.T) {
	// StreamFor must hand replica i exactly StreamFor(i)'s stream — a pure
	// function of the index, independent of worker count and of Seed.
	job := Job{
		Name: "streamfor",
		Backend: Func{Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
			return Sample{"draw": float64(r.Uint64() >> 11)}, nil
		}},
		Replicas:  16,
		Seed:      99,
		StreamFor: func(rep int) *rng.RNG { return rng.New(uint64(rep) + 7) },
	}
	for _, workers := range []int{1, 8} {
		job.Workers = workers
		res, err := Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Records {
			want := float64(rng.New(uint64(i)+7).Uint64() >> 11)
			if got := res.Sample(i)["draw"]; got != want {
				t.Errorf("workers %d replica %d draw = %v, want %v", workers, i, got, want)
			}
		}
	}
}

func TestConditionalMetricsAndCounts(t *testing.T) {
	res, err := Run(context.Background(), Job{
		Name: "conditional",
		Backend: Func{Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
			s := Sample{"always": float64(rep)}
			if rep%3 == 0 {
				s["onset"] = float64(10 * rep)
			}
			return s, nil
		}},
		Replicas: 9,
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Count("onset"); got != 3 {
		t.Errorf("onset count = %d, want 3", got)
	}
	if got := res.Count("always"); got != 9 {
		t.Errorf("always count = %d, want 9", got)
	}
	if got := res.Mean("onset"); got != 30 {
		t.Errorf("onset mean = %v, want 30 (replicas 0,3,6)", got)
	}
	if !math.IsNaN(res.Mean("missing")) {
		t.Error("unreported metric mean should be NaN")
	}
	if want := []string{"always", "onset"}; !reflect.DeepEqual(res.Keys(), want) {
		t.Errorf("keys = %v, want %v", res.Keys(), want)
	}
}

func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Run(context.Background(), Job{
			Name: "failing",
			Backend: Func{Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
				if rep == 5 {
					return nil, boom
				}
				return Sample{}, nil
			}},
			Replicas: 16,
			Workers:  workers,
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: error = %v, want wrapped boom", workers, err)
		}
		if err != nil && !strings.Contains(err.Error(), "replica 5") {
			t.Errorf("workers=%d: error %q does not name the failing replica", workers, err)
		}
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var once sync.Once
	go func() {
		<-started
		cancel()
	}()
	_, err := Run(ctx, Job{
		Name: "cancelled",
		Backend: Func{Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
			once.Do(func() { close(started) })
			<-ctx.Done()
			return nil, ctx.Err()
		}},
		Replicas: 8,
		Workers:  2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", err)
	}
}

func TestCancelStopsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	var mu sync.Mutex
	_, err := Run(ctx, Job{
		Name: "cancel-mid-run",
		Backend: Func{Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
			mu.Lock()
			ran++
			if ran == 2 {
				cancel()
			}
			mu.Unlock()
			return Sample{}, nil
		}},
		Replicas: 1000,
		Workers:  2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran >= 1000 {
		t.Errorf("cancellation did not stop the run (ran %d replicas)", ran)
	}
}

func TestProgress(t *testing.T) {
	var mu sync.Mutex
	var calls []int
	job := swarmJob(4)
	job.Progress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if total != 12 {
			t.Errorf("progress total = %d, want 12", total)
		}
		calls = append(calls, done)
	}
	if _, err := Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 12 {
		t.Fatalf("progress called %d times, want 12", len(calls))
	}
	for i, done := range calls {
		if done != i+1 {
			t.Errorf("progress calls out of order: %v", calls)
			break
		}
	}
}

func TestJobValidation(t *testing.T) {
	if _, err := Run(context.Background(), Job{Replicas: 1}); !errors.Is(err, ErrNoBackend) {
		t.Errorf("missing backend error = %v", err)
	}
	noop := Func{Fn: func(context.Context, int, *rng.RNG) (Sample, error) { return Sample{}, nil }}
	if _, err := Run(context.Background(), Job{Backend: noop}); !errors.Is(err, ErrNoWork) {
		t.Errorf("missing replicas error = %v", err)
	}
}

// sinkRecorder captures sink calls for inspection.
type sinkRecorder struct {
	replicas   []ReplicaRecord
	aggregates []AggregateRecord
}

func (s *sinkRecorder) WriteReplica(r ReplicaRecord) error {
	s.replicas = append(s.replicas, r)
	return nil
}
func (s *sinkRecorder) WriteAggregate(a AggregateRecord) error {
	s.aggregates = append(s.aggregates, a)
	return nil
}

func TestSinkOrderAndContent(t *testing.T) {
	for _, workers := range []int{1, 8} {
		rec := &sinkRecorder{}
		job := swarmJob(workers)
		job.Sink = rec
		res, err := Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.replicas) != job.Replicas {
			t.Fatalf("workers=%d: %d replica records, want %d", workers, len(rec.replicas), job.Replicas)
		}
		for i, r := range rec.replicas {
			if r.Replica != i {
				t.Errorf("workers=%d: record %d has replica %d (order broken)", workers, i, r.Replica)
			}
			if r.Kind != "replica" || r.Job != "test-swarm" || r.Backend != "sim" {
				t.Errorf("workers=%d: bad record header %+v", workers, r)
			}
		}
		if len(rec.aggregates) != 1 {
			t.Fatalf("workers=%d: %d aggregate records, want 1", workers, len(rec.aggregates))
		}
		agg := rec.aggregates[0]
		if agg.Replicas != job.Replicas || agg.Kind != "aggregate" {
			t.Errorf("bad aggregate header %+v", agg)
		}
		m, ok := agg.Metrics["final_n"]
		if !ok {
			t.Fatal("aggregate missing final_n")
		}
		if m.N != job.Replicas || m.Mean != res.Mean("final_n") {
			t.Errorf("aggregate final_n = %+v, want mean %v over %d", m, res.Mean("final_n"), job.Replicas)
		}
		if m.Min > m.Mean || m.Max < m.Mean {
			t.Errorf("aggregate min/mean/max inconsistent: %+v", m)
		}
	}
}

func TestJSONLSinkDeterministicBytes(t *testing.T) {
	outputs := make([]string, 0, 2)
	for _, workers := range []int{1, 8} {
		var b strings.Builder
		job := swarmJob(workers)
		job.Sink = NewJSONLSink(&b)
		if _, err := Run(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, b.String())
	}
	if outputs[0] != outputs[1] {
		t.Errorf("JSONL differs across worker counts:\n%s\nvs\n%s", outputs[0], outputs[1])
	}
	if lines := strings.Count(outputs[0], "\n"); lines != 13 {
		t.Errorf("JSONL lines = %d, want 12 replicas + 1 aggregate", lines)
	}
	if !strings.Contains(outputs[0], `"kind":"aggregate"`) {
		t.Error("JSONL missing aggregate record")
	}
}

// TestBackends drives every simulator adapter once through the engine.
func TestBackends(t *testing.T) {
	t.Run("coded", func(t *testing.T) {
		f := gf.MustNew(4)
		p := stability.CodedParams{
			K: 2, Field: f, Us: 1, Mu: 1, Gamma: 2,
			Arrivals: []stability.CodedArrival{{V: gf.ZeroSubspace(f, 2), Rate: 1}},
		}
		res, err := Run(context.Background(), Job{
			Name: "coded",
			Backend: &CodedBackend{
				Params: p,
				Measure: func(ctx context.Context, rep int, sw *codedsim.Swarm) (Sample, error) {
					if err := sw.RunUntil(20, 0); err != nil {
						return nil, err
					}
					return Sample{"final_n": float64(sw.N())}, nil
				},
			},
			Replicas: 4,
			Workers:  2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count("final_n") != 4 {
			t.Errorf("coded samples = %d", res.Count("final_n"))
		}
	})
	t.Run("peer", func(t *testing.T) {
		res, err := Run(context.Background(), Job{
			Name: "peer",
			Backend: &PeerBackend{
				Params: testParams(),
				Measure: func(ctx context.Context, rep int, sw *peersim.Swarm) (Sample, error) {
					if err := sw.RunUntil(50, 0); err != nil {
						return nil, err
					}
					return Sample{"departed": float64(sw.Departed())}, nil
				},
			},
			Replicas: 4,
			Workers:  2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count("departed") != 4 {
			t.Errorf("peer samples = %d", res.Count("departed"))
		}
	})
	t.Run("borderline", func(t *testing.T) {
		res, err := Run(context.Background(), Job{
			Name: "borderline",
			Backend: &BorderlineBackend{
				K: 3, Lambda: 1,
				Measure: func(ctx context.Context, rep int, c *borderline.Chain) (Sample, error) {
					c.RunTransitions(100)
					n, _ := c.State()
					return Sample{"n": float64(n)}, nil
				},
			},
			Replicas: 4,
			Workers:  2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count("n") != 4 {
			t.Errorf("borderline samples = %d", res.Count("n"))
		}
	})
	t.Run("no-measure", func(t *testing.T) {
		for _, b := range []Backend{
			&SwarmBackend{Params: testParams()},
			&CodedBackend{},
			&PeerBackend{Params: testParams()},
			&BorderlineBackend{K: 2, Lambda: 1},
		} {
			_, err := Run(context.Background(), Job{Name: "nm", Backend: b, Replicas: 1})
			if !errors.Is(err, ErrNoMeasure) {
				t.Errorf("%s: error = %v, want ErrNoMeasure", b.Name(), err)
			}
		}
	})
}

func TestBackendNames(t *testing.T) {
	cases := []struct {
		b    Backend
		want string
	}{
		{&SwarmBackend{}, "sim"},
		{&SwarmBackend{Label: "x"}, "x"},
		{&CodedBackend{}, "codedsim"},
		{&PeerBackend{}, "peersim"},
		{&BorderlineBackend{}, "borderline"},
		{Func{}, "func"},
		{Func{Label: "f"}, "f"},
	}
	for _, c := range cases {
		if got := c.b.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Error("DefaultWorkers < 1")
	}
}

// observedSwarmJob runs the type-count simulator with a trajectory series,
// a hitting watch, and a sojourn-free scalar measure — the full structured
// record path.
func observedSwarmJob(workers int) Job {
	return Job{
		Name: "observed-swarm",
		Backend: &SwarmBackend{
			Params: testParams(),
			Observe: func(rep int, sw *sim.Swarm) *obs.Set {
				return obs.NewSet(
					obs.NewSeries("n", 0, 2, 64, func() float64 { return float64(sw.N()) }),
					obs.NewPopulationWatch("n3", 3, false),
				)
			},
			Measure: func(ctx context.Context, rep int, sw *sim.Swarm) (Sample, error) {
				if _, err := sw.RunUntil(40, 0); err != nil {
					return nil, err
				}
				return Sample{"final_n": float64(sw.N())}, nil
			},
		},
		Replicas: 8,
		Seed:     3,
		Workers:  workers,
	}
}

// TestObserversProduceStructuredRecords: series and marks flow from the
// per-replica pipeline into Records, marks aggregate as conditional
// metrics, and everything is identical across worker counts.
func TestObserversProduceStructuredRecords(t *testing.T) {
	var ref *Result
	for _, workers := range []int{1, 8} {
		res, err := Run(context.Background(), observedSwarmJob(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range res.Records {
			if len(rec.Series) != 1 {
				t.Errorf("replica %d series keys = %v, want only n", i, rec.Series)
			}
			pts := rec.Series["n"]
			if len(pts) == 0 {
				t.Fatalf("replica %d has no n series", i)
			}
			if pts[0].T != 0 || pts[len(pts)-1].T > 40 {
				t.Errorf("replica %d series spans [%v, %v], want within [0, 40]",
					i, pts[0].T, pts[len(pts)-1].T)
			}
		}
		// The n3 watch aggregates like a conditional scalar: Count = hits.
		if res.Count("n3") == 0 {
			t.Error("no replica reported the n3 hitting mark")
		}
		if res.Count("n3") > 0 && !(res.Mean("n3") > 0) {
			t.Errorf("n3 mean hitting time = %v", res.Mean("n3"))
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.Records, ref.Records) {
			t.Error("structured records differ across worker counts")
		}
	}
}

func TestSinkCarriesSeriesAndMarks(t *testing.T) {
	outputs := make([]string, 0, 2)
	for _, workers := range []int{1, 8} {
		var b strings.Builder
		job := observedSwarmJob(workers)
		job.Sink = NewJSONLSink(&b)
		if _, err := Run(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, b.String())
	}
	if outputs[0] != outputs[1] {
		t.Error("observed JSONL differs across worker counts")
	}
	if !strings.Contains(outputs[0], `"series":{"n":[`) {
		t.Error("JSONL replica records missing series")
	}
	if !strings.Contains(outputs[0], `"marks":{"n3":`) {
		t.Error("JSONL replica records missing marks")
	}
}

func TestManyReplicasSmoke(t *testing.T) {
	// More replicas than workers, odd counts, to shake out pool bugs.
	res, err := Run(context.Background(), Job{
		Name: "smoke",
		Backend: Func{Fn: func(ctx context.Context, rep int, r *rng.RNG) (Sample, error) {
			return Sample{"v": float64(rep)}, nil
		}},
		Replicas: 101,
		Workers:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count("v") != 101 {
		t.Fatalf("samples = %d, want 101", res.Count("v"))
	}
	if got := res.Mean("v"); got != 50 {
		t.Errorf("mean replica index = %v, want 50", got)
	}
	fmt.Fprintln(discard{}, res.Summary("v"))
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkReplicas is the engine-scaling pair DESIGN.md §6 cites: one
// fixed job — replicated type-count swarms to a fixed horizon — with a
// single worker and with one worker per core. The ratio is the baseline
// for parallel replica execution.
func BenchmarkReplicas(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			job := Job{
				Name: "bench",
				Backend: &SwarmBackend{
					Params: model.Params{
						K: 3, Us: 1, Mu: 1, Gamma: 2,
						Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
					},
					Measure: func(ctx context.Context, rep int, sw *sim.Swarm) (Sample, error) {
						if _, err := sw.RunUntil(200, 0); err != nil {
							return nil, err
						}
						return Sample{"final_n": float64(sw.N())}, nil
					},
				},
				Replicas: 2 * runtime.NumCPU(),
				Seed:     1,
				Workers:  workers,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), job); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
