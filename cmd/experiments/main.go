// Command experiments regenerates the paper-reproduction tables E1–E18
// (see DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// output). Replicated experiments run on the parallel Monte-Carlo engine;
// output is byte-identical for any -parallel value at a fixed seed.
//
// Examples:
//
//	experiments                  # run everything at full scale
//	experiments -quick           # reduced scale (seconds instead of minutes)
//	experiments -id E1,E7        # selected experiments only
//	experiments -parallel 1      # serial replicas (same tables, slower)
//	experiments -jsonl out.jsonl # structured per-replica records
//	experiments -store out.store # same records, columnar (cmd/results queries)
//	experiments -id E15 -flash-peak 10 -churn 1  # scenario-layer knobs
//	experiments -v -metrics-addr :9090 -report run.json  # heartbeat, live
//	           # /metrics + pprof, end-of-run telemetry report
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/exp"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		quick     = fs.Bool("quick", false, "reduced horizons and replica counts")
		ids       = fs.String("id", "", "comma-separated experiment ids (default: all)")
		seed      = fs.Uint64("seed", 1, "base RNG seed")
		parallel  = fs.Int("parallel", engine.DefaultWorkers(), "engine worker pool size (1 = serial)")
		flashPeak = fs.Float64("flash-peak", 0, "E15: flash-crowd peak arrival multiplier (0 = default)")
		churn     = fs.Float64("churn", 0, "E15: per-downloader abandonment rate δ (0 = default)")
		verbose   = fs.Bool("v", false, "print a throttled replica-progress heartbeat to stderr")
		records   cli.Records
		tel       cli.Telemetry
	)
	records.RegisterFlags(fs)
	tel.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel must be >= 1, got %d", *parallel)
	}
	if *flashPeak < 0 || *churn < 0 {
		return fmt.Errorf("-flash-peak and -churn must be >= 0, got %v and %v", *flashPeak, *churn)
	}
	if err := tel.Start("experiments", os.Stderr); err != nil {
		return err
	}
	defer tel.Close()
	cfg := exp.Config{
		Quick: *quick, Seed: *seed, Workers: *parallel, Context: ctx,
		FlashPeak: *flashPeak, Churn: *churn,
	}
	if *verbose {
		hb := cli.NewHeartbeat(os.Stderr, "experiments", "replicas")
		cfg.Progress = hb.Observe
		defer hb.Finish()
	}

	var selected []exp.Experiment
	if *ids == "" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			e, err := exp.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}
	// Open the sinks only after the id list validates, so a typo'd -id does
	// not truncate an existing results file.
	sink, err := records.Open()
	if err != nil {
		return err
	}
	defer records.Close() // error-path cleanup; the success path checks Close below
	cfg.Sink = sink
	for _, e := range selected {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		table, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(out, "reproduces: %s\n", e.Artifact)
		fmt.Fprint(out, table.Render())
		fmt.Fprintf(out, "elapsed: %s\n\n", time.Since(start).Round(time.Millisecond))
	}
	if err := records.Close(); err != nil {
		return err
	}
	return tel.Finish()
}
