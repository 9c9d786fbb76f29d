package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/sweep"
)

func render(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), args, &out, io.Discard); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

func TestASCIIMap(t *testing.T) {
	out := render(t, "-xcells", "4", "-ycells", "3", "-depth", "1")
	for _, want := range []string{"p = positive-recurrent", "t = transient", "evaluated"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormats(t *testing.T) {
	csv := render(t, "-xcells", "3", "-ycells", "2", "-depth", "0", "-format", "csv")
	if !strings.HasPrefix(csv, "lambda0,mu-over-gamma,class,value\n") {
		t.Errorf("csv header: %q", csv[:40])
	}
	if lines := strings.Count(csv, "\n"); lines != 3*2+1 {
		t.Errorf("csv lines = %d, want 7", lines)
	}
	jsonl := render(t, "-xcells", "3", "-ycells", "2", "-depth", "0", "-format", "jsonl")
	if !strings.Contains(jsonl, `"kind":"map"`) {
		t.Errorf("jsonl missing map record:\n%s", jsonl)
	}
}

// simMap and hybridMap are the pinned Monte-Carlo maps: small enough for
// tier-1, with cells on both sides of the boundary.
var (
	simMap = []string{
		"-eval", "sim", "-horizon", "40", "-peer-cap", "120", "-replicas", "2",
		"-xcells", "4", "-ycells", "3", "-depth", "2", "-seed", "1",
	}
	hybridMap = []string{
		"-eval", "hybrid", "-horizon", "40", "-peer-cap", "2000", "-replicas", "2",
		"-k", "2", "-gamma", "inf", "-y", "us", "-xrange", "100,600", "-yrange", "50,300",
		"-xcells", "4", "-ycells", "3", "-depth", "2", "-seed", "1",
	}
)

// withWorkers appends -parallel and, above one worker, -trace and -report
// to temp files, so that leg runs with tracing and telemetry installed.
func withWorkers(t *testing.T, args []string, workers string) []string {
	args = append(append([]string(nil), args...), "-parallel", workers)
	if workers == "1" {
		return args
	}
	dir := t.TempDir()
	return append(args, "-trace", filepath.Join(dir, "trace.json"), "-report", filepath.Join(dir, "report.json"))
}

// TestGolden pins the phase maps (DESIGN.md §15): the sim and hybrid maps
// at -parallel 1 and 8, and the cell store, which must be byte-identical
// at 1 and 8 workers and which a run resumed at 8 workers from a copy cut
// at 2/3 of its length must restore to the exact bytes and map.
func TestGolden(t *testing.T) {
	for _, m := range []struct {
		name string
		args []string
	}{{"sim", simMap}, {"hybrid", hybridMap}} {
		t.Run(m.name, func(t *testing.T) {
			var legs [][]byte
			for _, workers := range []string{"1", "8"} {
				out := render(t, withWorkers(t, append(m.args, "-format", "jsonl"), workers)...)
				legs = append(legs, []byte(golden.Digest([]byte(out))))
			}
			golden.Check(t, m.name+".golden", legs...)
		})
	}
	t.Run("cellstore", func(t *testing.T) {
		dir := t.TempDir()
		// leg renders the CSV map, spilling cells to the store at path, and
		// returns the digests of the store and the map.
		leg := func(path, workers string) []byte {
			csv := render(t, withWorkers(t, append(simMap, "-format", "csv", "-store", path), workers)...)
			st, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return []byte(golden.Digest(st) + golden.Digest([]byte(csv)))
		}
		serial := filepath.Join(dir, "serial.store")
		legs := [][]byte{leg(serial, "1"), leg(filepath.Join(dir, "parallel.store"), "8")}
		full, err := os.ReadFile(serial)
		if err != nil {
			t.Fatal(err)
		}
		torn := filepath.Join(dir, "torn.store")
		if err := os.WriteFile(torn, full[:len(full)*2/3], 0o644); err != nil {
			t.Fatal(err)
		}
		golden.Check(t, "cellstore.golden", append(legs, leg(torn, "8"))...)
	})
}

func TestCacheResume(t *testing.T) {
	cacheFile := filepath.Join(t.TempDir(), "cells.store")
	args := []string{"-xcells", "4", "-ycells", "3", "-depth", "2", "-store", cacheFile, "-format", "ascii"}
	first := render(t, args...)
	second := render(t, args...)
	// The resumed run answers everything from the spill: same raster, zero
	// evaluations.
	if !strings.Contains(second, "evaluated 0 of") {
		t.Errorf("resumed run re-evaluated cells:\n%s", second)
	}
	cut := func(s string) string { return s[:strings.Index(s, "evaluated")] }
	if cut(first) != cut(second) {
		t.Errorf("resumed raster differs:\n%s\nvs\n%s", first, second)
	}
}

func TestUnknownAxis(t *testing.T) {
	err := run(context.Background(), []string{"-x", "bogus"}, io.Discard, io.Discard)
	if !errors.Is(err, sweep.ErrUnknownAxis) {
		t.Errorf("err = %v, want ErrUnknownAxis", err)
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-parallel", "0"},
		{"-eval", "psychic"},
		{"-format", "png"},
		{"-xrange", "1"},
		// Non-finite ranges must fail in grid validation, before any cell
		// is evaluated, not render a raster labelled [+Inf, +Inf].
		{"-xrange", "nan,5"},
		{"-x", "mu-over-gamma", "-xrange", "0,inf", "-xcells", "1"},
		// -store is the one cell spill path; there is no -cache flag.
		{"-cache", "cells.jsonl"},
		{"-xcells", "0"},
		// Scenario axes/flags are invisible to the theory evaluator and
		// must be rejected rather than render a misleading uniform map.
		{"-x", "flash-peak", "-xrange", "1,9"},
		{"-churn", "0.5"},
	} {
		if err := run(context.Background(), args, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
