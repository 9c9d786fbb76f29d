package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

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

// TestParallelByteIdentical is the CLI half of the acceptance criterion:
// the rendered map is byte-identical across -parallel 1/2/8 at a fixed
// seed, including the Monte-Carlo evaluator.
func TestParallelByteIdentical(t *testing.T) {
	common := []string{
		"-eval", "sim", "-horizon", "30", "-peer-cap", "100", "-replicas", "2",
		"-xcells", "3", "-ycells", "2", "-depth", "1", "-seed", "5",
		"-xrange", "0.5,6.5", "-yrange", "0,0.8", "-format", "csv",
	}
	var outs []string
	for _, p := range []string{"1", "2", "8"} {
		outs = append(outs, render(t, append(common, "-parallel", p)...))
	}
	if outs[0] != outs[1] || outs[0] != outs[2] {
		t.Errorf("output differs across -parallel:\n%s\nvs\n%s\nvs\n%s", outs[0], outs[1], outs[2])
	}
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
