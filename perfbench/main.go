// Command perfbench is the repository's benchmark. It runs one workload
// for a given time, checks its outputs, and prints its metrics; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {"wall_s": {"value": 1.9, "unit": "s"}, …}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload replicas-exact --seed 1 --seconds 10 --trace 0
//
// A workload is a fixed batch of tasks (a round) generated from the seed;
// rounds repeat, in one process, until the time is up and at least 100
// tasks have run. The engine pool is a closed loop of GOMAXPROCS workers:
// a worker takes the next replica or cell only when its current one ends.
// Every round must reproduce the first round's output digest and counts.
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// it alternates untraced and traced rounds, reports the per-layer metrics
// from the traced ones (spans recorded at the benchmark's calls into each
// layer), the tracing overhead, and writes the spans as a Chrome trace
// that cmd/tracetool summarize reads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"syscall"
	"time"

	"repro/internal/engine"
)

// workloadDef is one benchmark workload. setup generates its inputs from
// the seed and checks them; minAgree is the agree_frac floor.
type workloadDef struct {
	name     string
	minAgree float64
	setup    func(seed uint64, env env) (workload, error)
}

// env is what a workload may use besides its inputs.
type env struct {
	workers int
	dir     string // scratch directory inside the checkout
}

// workload runs rounds. run is the timed section; check, untimed, verifies
// the round's outputs and fills its digest and agreement counts.
type workload interface {
	run(ctx context.Context, log *roundLog) (*roundResult, error)
	check(res *roundResult) error
}

// roundResult is what one round reports besides its task timings.
type roundResult struct {
	work          float64 // units of work_per_s
	agree, judged int
	failed        int
	digest        string
	// counts are per-layer values that must repeat exactly at a seed.
	counts map[string]float64
}

func newRoundResult() *roundResult { return &roundResult{counts: map[string]float64{}} }

var workloads = []workloadDef{
	{name: "replicas-exact", minAgree: 1, setup: func(seed uint64, e env) (workload, error) {
		in, err := genReplicas(seed)
		return &replicasWorkload{in: in, workers: e.workers}, err
	}},
	{name: "phasemap-adaptive", minAgree: 0.95, setup: func(seed uint64, e env) (workload, error) {
		in, err := genPhasemap(seed)
		return &phasemapWorkload{in: in, workers: e.workers, dir: e.dir}, err
	}},
	{name: "hybrid-scale", minAgree: 0.85, setup: func(seed uint64, e env) (workload, error) {
		in, err := genHybrid(seed)
		return &hybridWorkload{in: in, workers: e.workers, seed: seed}, err
	}},
	{name: "exact-solve", minAgree: 1, setup: func(seed uint64, e env) (workload, error) {
		in, err := genExact(seed)
		return &exactWorkload{in: in, workers: e.workers}, err
	}},
}

const (
	// Set-up repeats at least setupReps times and for at least setupTime;
	// setup_s is the median repetition. Spreading it over a fifth of a
	// second averages out the machine's millisecond-scale speed swings.
	setupReps = 15
	setupTime = 200 * time.Millisecond
	minTasks  = 100 // enough for a p90 with ten samples beyond it
	minRounds = 3
	// maxRun bounds the measuring loop whatever the workload's round
	// length, so a run ends well inside three minutes.
	maxRun = 120 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload name")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 10, "measuring time")
		traced  = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out     = fs.String("out", ".bench_build/perfbench", "directory for scratch files and traces")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return 2, errors.New("need --seconds > 0 and --trace 0 or 1")
	}
	dir, err := os.MkdirTemp(mustDir(*out), "run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)
	e := env{workers: engine.DefaultWorkers(), dir: dir}

	var (
		w      workload
		setups []float64
	)
	for start := time.Now(); len(setups) < setupReps || time.Since(start) < setupTime; {
		t0 := time.Now()
		w, err = def.setup(*seed, e)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return 1, fmt.Errorf("setup: %w", err)
		}
	}

	m := measure{def: def, w: w, e: e, budget: time.Duration(*seconds * float64(time.Second))}
	if *traced == 1 {
		m.tr = newTracer()
	}
	if err := m.loop(context.Background()); err != nil {
		return 1, err
	}

	var metrics map[string]metric
	if m.tr == nil {
		metrics = m.endToEnd(median(setups))
	} else {
		path := filepath.Join(mustDir(*out), fmt.Sprintf("trace-%s-seed%d.json", def.name, *seed))
		meta := map[string]string{"workload": def.name, "seed": fmt.Sprint(*seed), "workers": fmt.Sprint(e.workers)}
		if err := writeChrome(path, m.tr.snapshot(), meta); err != nil {
			return 1, err
		}
		fmt.Fprintln(stdout, "trace written to", path)
		metrics = m.perLayer()
	}
	res := result{Correct: len(m.problems) == 0, Attempted: m.attempted, Failed: m.failed, Metrics: metrics}
	m.print(stdout, metrics)
	for _, p := range m.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1, errors.New("output checks failed")
	}
	return 0, nil
}

// mustDir creates dir if needed and returns it.
func mustDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces at the first file operation
	return dir
}

// roundStat is one measured round.
type roundStat struct {
	traced bool
	wall   time.Duration
	log    *roundLog
	res    *roundResult
	spans  []span
	window interval
	allocs uint64
}

// measure runs the rounds of one workload and derives its metrics.
type measure struct {
	def    *workloadDef
	w      workload
	e      env
	tr     *tracer
	budget time.Duration

	rounds    []roundStat
	attempted int
	failed    int
	problems  []string
}

func (m *measure) problem(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// loop runs rounds until the time is up and enough tasks and rounds ran.
// In a traced run rounds alternate untraced and traced, starting untraced.
func (m *measure) loop(ctx context.Context) error {
	start := time.Now()
	var (
		ref    *roundResult
		spent  time.Duration
		traced int
	)
	for i := 0; ; i++ {
		tr := (*tracer)(nil)
		if m.tr != nil && i%2 == 1 {
			tr = m.tr
		}
		rs, err := m.round(ctx, i, tr)
		if err != nil {
			return err
		}
		if err := m.w.check(rs.res); err != nil {
			m.problem("round %d: %v", i, err)
		}
		if ref == nil {
			ref = rs.res
		} else {
			if rs.res.digest != ref.digest {
				m.problem("round %d: output digest %s differs from round 0's %s", i, rs.res.digest, ref.digest)
			}
			if !reflect.DeepEqual(rs.res.counts, ref.counts) {
				m.problem("round %d: counts differ from round 0's", i)
			}
		}
		m.rounds = append(m.rounds, rs)
		m.attempted += len(rs.log.tasks)
		m.failed += rs.res.failed
		spent += rs.wall
		if tr != nil {
			traced++
		}
		enough := spent >= m.budget && len(m.rounds) >= minRounds
		if m.tr == nil {
			enough = enough && m.attempted >= minTasks
		} else {
			enough = enough && traced >= 2
		}
		if enough || time.Since(start) > maxRun {
			break
		}
	}
	if m.tr == nil && m.attempted < minTasks {
		m.problem("only %d tasks ran within %v", m.attempted, maxRun)
	}
	if f := m.agreeFrac(); f < m.def.minAgree {
		m.problem("agree_frac %.4f below the workload's floor %.2f", f, m.def.minAgree)
	}
	return nil
}

// round runs one round; tr is nil for an untraced round.
func (m *measure) round(ctx context.Context, i int, tr *tracer) (roundStat, error) {
	var ms runtime.MemStats
	var mallocs uint64
	if tr != nil {
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs
	}
	before := 0
	if tr != nil {
		before = tr.count()
	}
	log := &roundLog{tr: tr, workers: m.e.workers}
	t0 := time.Now()
	root := tr.beginAt(t0, "round", "", 0, i, 0)
	log.root = root.id()
	res, err := m.w.run(ctx, log)
	t1 := time.Now()
	root.endAt(t1)
	if err != nil {
		return roundStat{}, fmt.Errorf("round %d: %w", i, err)
	}
	rs := roundStat{traced: tr != nil, wall: t1.Sub(t0), log: log, res: res}
	if tr != nil {
		runtime.ReadMemStats(&ms)
		rs.allocs = ms.Mallocs - mallocs
		rs.spans = tr.snapshot()[before:]
		rs.window = interval{t0.Sub(tr.origin), t1.Sub(tr.origin)}
	}
	return rs, nil
}

func (m *measure) agreeFrac() float64 {
	var agree, judged int
	for _, r := range m.rounds {
		agree += r.res.agree
		judged += r.res.judged
	}
	if judged == 0 {
		return 0
	}
	return float64(agree) / float64(judged)
}

// endToEnd derives the untraced run's metrics.
func (m *measure) endToEnd(setup float64) map[string]metric {
	var walls, taskRates, workRates, taskMs []float64
	for _, r := range m.rounds {
		wall := r.wall.Seconds()
		walls = append(walls, wall)
		taskRates = append(taskRates, float64(len(r.log.tasks))/wall)
		workRates = append(workRates, r.res.work/wall)
		for _, d := range r.log.tasks {
			taskMs = append(taskMs, float64(d)/float64(time.Millisecond))
		}
	}
	values := map[string]float64{
		"setup_s":     setup,
		"wall_s":      median(walls),
		"tasks_per_s": median(taskRates),
		"work_per_s":  median(workRates),
		"task_ms_p50": percentile(taskMs, 50),
		"task_ms_p90": percentile(taskMs, 90),
		"max_rss_mb":  maxRSSMB(),
		"agree_frac":  m.agreeFrac(),
	}
	if p, ok := tailPercentile(len(taskMs)); !ok || p < 90 {
		m.problem("%d task timings are too few for a p90", len(taskMs))
	}
	return collect(endToEnd, values)
}

// perLayer derives the traced run's metrics: counts from the first round,
// times as medians over the traced rounds.
func (m *measure) perLayer() map[string]metric {
	values := map[string]float64{}
	for k, v := range m.rounds[0].res.counts {
		values[k] = v
	}
	perRound := map[string][]float64{}
	add := func(k string, v float64) { perRound[k] = append(perRound[k], v) }
	var tracedWalls, plainWalls []float64
	var spans []span
	var windows []interval
	for _, r := range m.rounds {
		if !r.traced {
			plainWalls = append(plainWalls, r.wall.Seconds())
			continue
		}
		tracedWalls = append(tracedWalls, r.wall.Seconds())
		spans = append(spans, r.spans...)
		windows = append(windows, r.window)
		l := r.log
		var waits []float64
		for _, d := range l.waits {
			waits = append(waits, float64(d)/float64(time.Millisecond))
		}
		add("engine.busy_s", l.busy.Seconds())
		add("engine.wait_ms_p50", percentile(waits, 50))
		add("engine.idle_frac", 1-l.busy.Seconds()/(float64(m.e.workers)*l.poolWall.Seconds()))
		add("engine.tail_s", l.tail.Seconds())
		add("engine.allocs_per_task", float64(r.allocs)/float64(len(l.tasks)))
		add("trace.spans", float64(len(r.spans)))
		for layer, d := range selfTimes(r.spans) {
			add(layer+".self_s", d.Seconds())
		}
		byName := map[string][]time.Duration{}
		for _, s := range r.spans {
			byName[s.Name] = append(byName[s.Name], s.dur())
		}
		total := func(names ...string) (t time.Duration) {
			for _, n := range names {
				for _, d := range byName[n] {
					t += d
				}
			}
			return t
		}
		medianUs := func(name string) float64 {
			var us []float64
			for _, d := range byName[name] {
				us = append(us, float64(d)/float64(time.Microsecond))
			}
			return percentile(us, 50)
		}
		c := r.res.counts
		for _, layer := range []string{"sim", "peersim", "codedsim"} {
			if c[layer+".events"] > 0 {
				add(layer+".step_ns", float64(total(layer+".run").Nanoseconds())/c[layer+".events"])
				add(layer+".new_us", medianUs(layer+".new"))
			}
		}
		if len(byName["obs.build"]) > 0 {
			add("obs.build_us", medianUs("obs.build"))
		}
		add("store.write_s", total("store.create", "store.write", "store.close").Seconds())
		add("store.read_s", total("store.read").Seconds())
		add("store.replay_s", total("store.replay").Seconds())
		add("sweep.eval_busy_s", total("sweep.evaluate").Seconds())
		if run := total("hybrid.run"); run > 0 {
			add("hybrid.run_s", run.Seconds())
			add("hybrid.ns_per_simtime", float64(run.Nanoseconds())/c["hybrid.simtime"])
		}
		if solve := total("markov.solve"); solve > 0 {
			add("markov.build_s", total("markov.build").Seconds())
			add("markov.solve_s", solve.Seconds())
			add("markov.iters_per_s", c["markov.iterations"]/solve.Seconds())
		}
	}
	for k, vs := range perRound {
		values[k] = median(vs)
	}
	values["trace.coverage"] = coverage(spans, windows)
	values["trace.overhead"] = median(tracedWalls)/median(plainWalls) - 1
	if values["trace.coverage"] < 0.95 {
		m.problem("layer spans cover %.3f of the traced wall time, below 0.95", values["trace.coverage"])
	}
	return collect(perLayer, values)
}

// collect keeps the listed metrics, reporting 0 for a layer the workload
// bypasses.
func collect(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out
}

// print writes every metric by name with its unit, and the run's shape.
func (m *measure) print(w io.Writer, metrics map[string]metric) {
	fmt.Fprintf(w, "workload %s: %d rounds, %d tasks, %d workers\n", m.def.name, len(m.rounds), m.attempted, m.e.workers)
	defs := endToEnd
	if m.tr != nil {
		defs = perLayer
	}
	for _, d := range defs {
		line := fmt.Sprintf("  %-26s %16.6g %s", d.Name, metrics[d.Name].Value, d.Unit)
		if d.Moves != "" {
			line += "   (moves " + d.Moves + ")"
		}
		fmt.Fprintln(w, line)
	}
	if m.tr == nil {
		p, _ := tailPercentile(m.attempted)
		fmt.Fprintf(w, "  task timings: %d samples; highest percentile with ten beyond it: p%g\n", m.attempted, p)
	}
	fmt.Fprintf(w, "  round walls (s):")
	for _, r := range m.rounds {
		mark := ""
		if r.traced {
			mark = "*"
		}
		fmt.Fprintf(w, " %.3f%s", r.wall.Seconds(), mark)
	}
	fmt.Fprintf(w, "\n  digest %s\n", m.rounds[0].res.digest)
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
