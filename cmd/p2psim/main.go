// Command p2psim runs replicated sample paths of the P2P swarm CTMC
// through the parallel Monte-Carlo engine and the streaming observation
// pipeline: a decimated trace of the population / peer seeds / one-club /
// missing-piece trajectory (-traj, on by default), exact event-sampled
// population quantiles (-quantiles), per-replica structured records as
// JSONL (-jsonl) and/or the columnar result store (-store, query with
// cmd/results), and summary statistics alongside the Theorem 1 verdict
// for the same parameters. Output is byte-identical for any -parallel
// value at a fixed seed.
//
// Examples:
//
//	p2psim -k 3 -us 1 -mu 1 -gamma 2 -lambda0 2 -horizon 500 -policy rarest-first
//	p2psim -k 2 -lambda0 3 -replicas 8 -parallel 4 -quantiles -jsonl records.jsonl
//	p2psim -replicas 64 -v -metrics-addr :9090 -report run.json  # heartbeat,
//	       # live /metrics + pprof while running, end-of-run telemetry report
//	p2psim -replicas 64 -trace trace.json  # stream a Perfetto-loadable
//	       # execution trace (inspect with tracetool summarize trace.json)
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "p2psim:", err)
		os.Exit(1)
	}
}

func policyByName(name string) (sim.Policy, error) {
	for _, p := range sim.AllPolicies() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("unknown policy %q (have: random-useful, rarest-first, most-common-first, sequential-lowest)", name)
}

// quantileTargets are the population quantiles -quantiles reports.
var quantileTargets = []float64{0.1, 0.5, 0.9}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("p2psim", flag.ContinueOnError)
	mod := cli.DefaultModel()
	mod.K = 2
	var (
		horizon   = fs.Float64("horizon", 200, "simulated time horizon")
		cap       = fs.Int("cap", 100000, "stop a replica when its population reaches this size")
		seed      = fs.Uint64("seed", 1, "base RNG seed (replicas run on streams split from it)")
		polName   = fs.String("policy", "random-useful", "piece selection policy")
		samples   = fs.Int("samples", 20, "number of decimated trace points")
		replicas  = fs.Int("replicas", 1, "number of independent replicas")
		parallel  = fs.Int("parallel", engine.DefaultWorkers(), "engine worker pool size (1 = serial; output is identical either way)")
		traj      = fs.Bool("traj", true, "attach trajectory observers and print the decimated trajectory table")
		quantiles = fs.Bool("quantiles", false, "record exact event-sampled population quantiles and print them")
		csvOut    = fs.Bool("csv", false, "emit the trace as CSV instead of a table")
		verbose   = fs.Bool("v", false, "print a throttled replica-progress heartbeat to stderr")
		records   cli.Records
		tel       cli.Telemetry
	)
	mod.RegisterFlags(fs)
	records.RegisterFlags(fs)
	tel.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := mod.Params()
	if err != nil {
		return err
	}
	policy, err := policyByName(*polName)
	if err != nil {
		return err
	}
	if *replicas < 1 || *parallel < 1 {
		return fmt.Errorf("-replicas and -parallel must be >= 1")
	}
	if *samples < 2 {
		return fmt.Errorf("-samples must be >= 2, got %d", *samples)
	}
	if !(*horizon > 0) || math.IsInf(*horizon, 1) {
		return fmt.Errorf("-horizon must be finite and > 0, got %v", *horizon)
	}
	sys, err := core.NewSystem(p)
	if err != nil {
		return err
	}
	if err := tel.Start("p2psim", os.Stderr); err != nil {
		return err
	}
	defer tel.Close()
	needTrace := *traj || *csvOut

	backend := &engine.SwarmBackend{
		Label:   "p2psim",
		Params:  p,
		Options: []sim.Option{sim.WithPolicy(policy)},
		Observe: func(rep int, sw *sim.Swarm) *obs.Set {
			set := obs.NewSet()
			if needTrace {
				dt := *horizon / float64(*samples)
				for _, s := range sw.TraceSeries(0, *horizon, dt, sys.CriticalPiece()) {
					set.Add(s)
				}
			}
			if *quantiles {
				set.Add(obs.NewQuantiles("n", func() float64 { return float64(sw.N()) }, quantileTargets...))
			}
			return set
		},
		Measure: func(ctx context.Context, rep int, sw *sim.Swarm) (engine.Sample, error) {
			reason, err := sw.RunUntil(*horizon, *cap)
			if err != nil {
				return nil, err
			}
			st := sw.Stats()
			s := engine.Sample{
				"final_t":    sw.Now(),
				"final_n":    float64(sw.N()),
				"mean_n":     sw.MeanPeers(),
				"events":     float64(st.Events),
				"arrivals":   float64(st.Arrivals),
				"departures": float64(st.Departures),
				"uploads":    float64(st.Uploads),
				"noops":      float64(st.NoOps),
			}
			if reason == sim.StopPeers {
				s["capped"] = 1
			}
			return s, nil
		},
	}
	job := engine.Job{
		Name:     "p2psim/" + p.String(),
		Backend:  backend,
		Replicas: *replicas,
		Seed:     *seed,
		Workers:  *parallel,
	}
	if *verbose {
		hb := cli.NewHeartbeat(os.Stderr, "p2psim", "replicas")
		job.Progress = hb.Observe
		defer hb.Finish()
	}
	if job.Sink, err = records.Open(); err != nil {
		return err
	}
	res, err := engine.Run(nil, job)
	if cerr := records.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	if *csvOut {
		if err := writeCSV(out, res.Records[0]); err != nil {
			return err
		}
		return tel.Finish()
	}
	fmt.Fprintf(out, "parameters : %s\n", p)
	fmt.Fprintf(out, "theorem 1  : %s\n", sys.Verdict())
	fmt.Fprintf(out, "policy     : %s\n", policy.Name())
	if *replicas > 1 {
		fmt.Fprintf(out, "replicas   : %d\n", *replicas)
	}
	fmt.Fprintln(out)
	if *traj {
		writeTraceTable(out, res.Records[0], *replicas > 1)
	}
	writeSummary(out, sys, res, *replicas)
	if *quantiles {
		writeQuantiles(out, res)
	}
	return tel.Finish()
}

// traceColumns zips a record's trajectory series into rows, relying on the
// shared ladder TraceSeries guarantees.
func traceColumns(rec engine.Record) (pts [][5]float64) {
	n := rec.Series["n"]
	seeds := rec.Series["seeds"]
	club := rec.Series["one_club"]
	missing := rec.Series["missing"]
	for i := range n {
		pts = append(pts, [5]float64{n[i].T, n[i].V, seeds[i].V, club[i].V, missing[i].V})
	}
	return pts
}

func writeCSV(out io.Writer, rec engine.Record) error {
	w := csv.NewWriter(out)
	if err := w.Write([]string{"t", "n", "seeds", "one_club", "missing"}); err != nil {
		return err
	}
	for _, pt := range traceColumns(rec) {
		row := []string{strconv.FormatFloat(pt[0], 'f', 4, 64)}
		for _, v := range pt[1:] {
			row = append(row, strconv.Itoa(int(v)))
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func writeTraceTable(out io.Writer, rec engine.Record, labeled bool) {
	if labeled {
		fmt.Fprintln(out, "replica 0 trace (decimated):")
	}
	fmt.Fprintf(out, "%10s %8s %8s %10s %10s\n", "t", "N", "seeds", "one-club", "missing")
	for _, pt := range traceColumns(rec) {
		fmt.Fprintf(out, "%10.2f %8d %8d %10d %10d\n",
			pt[0], int(pt[1]), int(pt[2]), int(pt[3]), int(pt[4]))
	}
	fmt.Fprintln(out)
}

func writeSummary(out io.Writer, sys *core.System, res *engine.Result, replicas int) {
	if replicas == 1 {
		s := res.Sample(0)
		fmt.Fprintf(out, "final time      : %.2f\n", s["final_t"])
		fmt.Fprintf(out, "final population: %d\n", int(s["final_n"]))
		fmt.Fprintf(out, "mean population : %.3f\n", s["mean_n"])
		fmt.Fprintf(out, "mean sojourn (Little): %.3f\n", sys.MeanSojournTime(s["mean_n"]))
		fmt.Fprintf(out, "events: %d  arrivals: %d  departures: %d  uploads: %d  no-ops: %d\n",
			int(s["events"]), int(s["arrivals"]), int(s["departures"]),
			int(s["uploads"]), int(s["noops"]))
		return
	}
	fmt.Fprintf(out, "final population: %s\n", res.Summary("final_n"))
	fmt.Fprintf(out, "mean population : %s\n", res.Summary("mean_n"))
	fmt.Fprintf(out, "mean sojourn (Little): %.3f\n", sys.MeanSojournTime(res.Mean("mean_n")))
	fmt.Fprintf(out, "capped replicas : %d/%d\n", res.Count("capped"), replicas)
	fmt.Fprintf(out, "events per replica: %s\n", res.Summary("events"))
}

func writeQuantiles(out io.Writer, res *engine.Result) {
	fmt.Fprintf(out, "population quantiles (exact, event-sampled, mean over replicas):")
	for _, p := range quantileTargets {
		key := fmt.Sprintf("n.p%g", 100*p)
		fmt.Fprintf(out, "  p%g=%.3g", 100*p, res.Mean(key))
	}
	fmt.Fprintln(out)
}
