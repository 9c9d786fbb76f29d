// Command stabilitycheck evaluates Theorem 1 for a parameter point given
// on the command line and prints the verdict, the per-piece thresholds and
// the ∆_S diagnostics.
//
// Examples:
//
//	stabilitycheck -k 1 -us 1 -mu 1 -gamma 2 -lambda0 1.5
//	stabilitycheck -k 4 -mu 1 -gamma inf -arrive 1,2=1 -arrive 3,4=0.6
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/stability"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stabilitycheck:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stabilitycheck", flag.ContinueOnError)
	var (
		mod      = cli.DefaultModel()
		critical = fs.Bool("critical", false, "also locate the stability boundary (critical arrival scale and critical γ)")
		tel      cli.Telemetry
	)
	mod.RegisterFlags(fs)
	tel.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tel.Start("stabilitycheck", os.Stderr); err != nil {
		return err
	}
	defer tel.Close()
	p, err := mod.Params()
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(p)
	if err != nil {
		return err
	}
	a := sys.Stability()
	fmt.Fprintf(out, "parameters: %s\n", p)
	fmt.Fprintf(out, "λ_total   : %g\n", p.LambdaTotal())
	fmt.Fprintf(out, "verdict   : %s\n", a.Verdict)
	if *critical {
		printCritical(out, p)
	}
	if a.GammaLeMu {
		fmt.Fprintln(out, "branch    : γ ≤ µ (stability ⇔ every piece can enter)")
		if a.BlockedPiece != 0 {
			fmt.Fprintf(out, "blocked   : piece %d can never enter the system\n", a.BlockedPiece)
		}
		return tel.Finish()
	}
	fmt.Fprintf(out, "branch    : µ < γ (missing-piece thresholds, eq. (3))\n")
	for piece := 1; piece <= p.K; piece++ {
		marker := " "
		if piece == a.CriticalPiece {
			marker = "*"
		}
		fmt.Fprintf(out, "  piece %d%s: λ_total < %g\n", piece, marker, a.Thresholds[piece])
	}
	fmt.Fprintf(out, "margin    : %g (min threshold − λ_total)\n", a.Margin)
	if a.Verdict == stability.Transient {
		g, err := sys.OneClubGrowthRate()
		if err == nil {
			fmt.Fprintf(out, "∆_{F−{%d}} : %g (predicted one-club growth rate)\n",
				a.CriticalPiece, g)
		}
	}
	return tel.Finish()
}

// printCritical reports the boundary location along two rays: scaling all
// arrival rates, and varying γ.
func printCritical(out io.Writer, p model.Params) {
	if scale, err := stability.CriticalScale(p); err == nil {
		fmt.Fprintf(out, "boundary  : arrival rates ×%g cross the stability boundary\n", scale)
	} else {
		fmt.Fprintf(out, "boundary  : no arrival scaling destabilizes this shape (%v)\n", err)
	}
	if g, err := stability.CriticalGamma(p); err == nil {
		if math.IsInf(g, 1) {
			fmt.Fprintln(out, "critical γ: none — stable even with instant departures (γ = ∞)")
		} else {
			fmt.Fprintf(out, "critical γ: %g (stable for γ < %g, i.e. mean dwell > %g)\n", g, g, 1/g)
		}
	} else {
		fmt.Fprintf(out, "critical γ: %v\n", err)
	}
}
