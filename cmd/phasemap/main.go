// Command phasemap draws 2-D phase diagrams of the Zhu–Hajek model through
// the adaptive sweep subsystem (internal/sweep): pick two axes, a range,
// and a refinement depth, and the sweep evaluates the base grid, then
// bisects only the cells straddling the stability boundary — typically
// >5× fewer evaluations than a dense grid at the same resolution. Cells
// are memoized by a canonical parameter hash; with -store FILE the memo
// table spills to a columnar cell store and an interrupted sweep resumes
// where it left off, even from a torn file. Output is byte-identical for
// any -parallel value at a fixed seed.
//
// Examples:
//
//	phasemap                                  # Fig. 1(a): λ0 × µ/γ, Theorem 1
//	phasemap -eval sim -depth 2               # same plane, Monte-Carlo verdicts
//	phasemap -x flash-peak -xrange 1,9 -y churn -yrange 0,1.6 \
//	    -eval sim -lambda0 3                  # scenario diagram (needs -eval sim)
//	phasemap -format csv -o map.csv           # machine-readable raster
//	phasemap -store cells.store -v            # spill cells, live progress; resumes even a torn file
//	phasemap -eval sim -metrics-addr :9090 -report run.json  # live /metrics
//	         # (cache hit rate, events/sec) + end-of-run telemetry report
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "phasemap:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("phasemap", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		xName  = fs.String("x", "lambda0", "x axis (one of: "+strings.Join(sweep.AxisNames(), ", ")+")")
		yName  = fs.String("y", "mu-over-gamma", "y axis")
		xRange = fs.String("xrange", "0.25,6", "x axis range MIN,MAX")
		yRange = fs.String("yrange", "0,0.9", "y axis range MIN,MAX")
		xCells = fs.Int("xcells", 8, "base grid cells along x")
		yCells = fs.Int("ycells", 6, "base grid cells along y")
		depth  = fs.Int("depth", 3, "quadtree refinement depth (0 = dense base grid only)")
		dense  = fs.Bool("dense", false, "evaluate every fine cell (baseline; no adaptive savings)")
		eval   = fs.String("eval", "theory", `cell evaluator: "theory" (Theorem 1), "sim" (Monte-Carlo), or "hybrid" (adaptive multi-regime Monte-Carlo)`)

		mod = cli.DefaultModel()

		horizon  = fs.Float64("horizon", 300, "sim evaluator: simulated time per replica")
		peerCap  = fs.Int("peer-cap", 400, "sim evaluator: growth cap per replica")
		replicas = fs.Int("replicas", 3, "sim evaluator: sample paths per cell")

		flashPeak = fs.Float64("flash-peak", 0, "base scenario: flash-crowd peak multiplier (0 = none)")
		churn     = fs.Float64("churn", 0, "base scenario: per-downloader abandonment rate δ")

		seed     = fs.Uint64("seed", 1, "base RNG seed (sim evaluator)")
		parallel = fs.Int("parallel", engine.DefaultWorkers(), "engine worker pool size (1 = serial)")
		format   = fs.String("format", "ascii", `output format: "ascii", "csv", or "jsonl"`)
		outFile  = fs.String("o", "", "write the map to this file instead of stdout")
		storeF   = fs.String("store", "", "columnar cell cache (.store): resume from it — even a torn one — and spill new cells to it")
		verbose  = fs.Bool("v", false, "report per-round refined-cell progress on stderr (throttled heartbeat)")
		tel      cli.Telemetry
	)
	mod.RegisterFlags(fs)
	tel.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel must be >= 1, got %d", *parallel)
	}
	if err := tel.Start("phasemap", errw); err != nil {
		return err
	}
	defer tel.Close()

	base, err := mod.Params()
	if err != nil {
		return err
	}
	var scenario kernel.Scenario
	if *flashPeak > 0 {
		shape := sweep.DefaultFlashShape
		shape.Peak = *flashPeak
		scenario.Arrival = shape
	}
	scenario.Churn = *churn

	xAxis, err := sweep.AxisByName(*xName)
	if err != nil {
		return err
	}
	yAxis, err := sweep.AxisByName(*yName)
	if err != nil {
		return err
	}
	xMin, xMax, err := cli.ParseRange(*xRange)
	if err != nil {
		return err
	}
	yMin, yMax, err := cli.ParseRange(*yRange)
	if err != nil {
		return err
	}
	grid := sweep.Grid{
		Base:     base,
		Scenario: scenario,
		X:        sweep.AxisSpec{Axis: xAxis, Min: xMin, Max: xMax, Cells: *xCells},
		Y:        sweep.AxisSpec{Axis: yAxis, Min: yMin, Max: yMax, Cells: *yCells},

		RefineDepth: *depth,
	}

	switch *format {
	case "ascii", "csv", "jsonl":
	default:
		return fmt.Errorf("unknown -format %q (want ascii, csv, or jsonl)", *format)
	}

	var evaluator sweep.Evaluator
	switch *eval {
	case "theory":
		// Theorem 1 sees only the model parameters, so a workload overlay
		// would be silently ignored and the map misleadingly uniform.
		if scenario.Active() || xAxis.Scenario || yAxis.Scenario {
			return fmt.Errorf("scenario axes and -flash-peak/-churn flags require -eval sim (Theorem 1 ignores workload overlays)")
		}
		evaluator = sweep.Theory{}
	case "sim":
		// Fold the seed into the evaluator identity so cached cells from a
		// different -seed are never reused.
		evaluator = sweep.Seeded{
			Evaluator: &sweep.Empirical{Horizon: *horizon, PeerCap: *peerCap, Replicas: *replicas},
			Seed:      *seed,
		}
	case "hybrid":
		// Tau-leaping aggregates the stationary rates of equation (1), so
		// workload overlays need the exact simulator.
		if scenario.Active() || xAxis.Scenario || yAxis.Scenario {
			return fmt.Errorf("scenario axes and -flash-peak/-churn flags require -eval sim (the hybrid backend aggregates stationary rates)")
		}
		evaluator = sweep.Seeded{
			Evaluator: &sweep.Hybrid{Horizon: *horizon, PeerCap: *peerCap, Replicas: *replicas},
			Seed:      *seed,
		}
	default:
		return fmt.Errorf("unknown -eval %q (want theory, sim, or hybrid)", *eval)
	}

	runner := &sweep.Runner{Evaluator: evaluator, Workers: *parallel}
	var cellStore *sweep.CellStore
	if *storeF != "" {
		cache := sweep.NewCache()
		cs, loaded, err := sweep.OpenCellStore(*storeF, cache)
		if err != nil {
			return err
		}
		cellStore = cs
		defer cellStore.Close() // error-path cleanup; the success path checks Close below
		runner.Cache = cache
		if *verbose && loaded > 0 {
			fmt.Fprintf(errw, "phasemap: resumed %d cells from %s\n", loaded, *storeF)
		}
	}
	if *verbose {
		hb := cli.NewHeartbeat(errw, "phasemap", "cells")
		runner.Progress = hb.Step
		defer hb.Finish()
	}

	var m *sweep.Map
	if *dense {
		m, err = grid.RunDense(ctx, runner)
	} else {
		m, err = grid.Run(ctx, runner)
	}
	if err != nil {
		return err
	}

	w := out
	var outF *os.File
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		outF = f
		defer outF.Close() // error-path cleanup; the success path checks Close below
		w = f
	}
	switch *format {
	case "ascii":
		err = sweep.WriteASCII(w, m)
	case "csv":
		err = sweep.WriteCSV(w, m)
	case "jsonl":
		err = sweep.WriteJSONL(w, m)
	}
	if err != nil {
		return err
	}
	// A write error surfacing only at close (full disk, network FS) must
	// not exit 0 with a truncated map or a lost cell-store footer.
	if outF != nil {
		if err := outF.Close(); err != nil {
			return err
		}
	}
	if cellStore != nil {
		if err := cellStore.Close(); err != nil {
			return err
		}
	}
	return tel.Finish()
}
