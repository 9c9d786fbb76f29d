package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
)

func TestRunSelectedQuick(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-quick", "-id", "E12,E5"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"E12 —", "E5 —", "reproduces:", "elapsed:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "DISAGREE") {
		t.Errorf("experiment disagreed with theory:\n%s", out)
	}
}

func TestRunUnknownID(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-id", "E99"}, &b); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

// TestRunUnknownIDKeepsRecords pins the open-after-validate ordering: a
// mistyped -id must fail before -jsonl truncates an existing results file.
func TestRunUnknownIDKeepsRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "existing.jsonl")
	want := []byte(`{"kind":"replica","job":"earlier run"}` + "\n")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err := run(context.Background(), []string{"-id", "BOGUS", "-jsonl", path}, &b)
	if !errors.Is(err, exp.ErrUnknownExperiment) {
		t.Fatalf("err = %v, want the unknown-id error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("existing results file changed: %q, want %q", got, want)
	}
}

func TestRunBadFlag(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-bogus"}, &b); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunBadParallel(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-parallel", "0"}, &b); err == nil {
		t.Error("-parallel 0 accepted")
	}
}

// TestRunScenarioFlags runs the scenario experiment end-to-end through the
// CLI with explicit flash-crowd and churn knobs.
func TestRunScenarioFlags(t *testing.T) {
	var b strings.Builder
	args := []string{"-quick", "-id", "E15", "-flash-peak", "7", "-churn", "0.8"}
	if err := run(context.Background(), args, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"E15 —", "×7", "δ=0.8", "flash crowd", "churn"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "DISAGREE") {
		t.Errorf("scenario experiment disagreed:\n%s", out)
	}
}

func TestRunBadScenarioFlags(t *testing.T) {
	var b strings.Builder
	if err := run(context.Background(), []string{"-churn", "-1"}, &b); err == nil {
		t.Error("negative -churn accepted")
	}
}

// TestParallelDeterminism is the acceptance check for the engine: the
// rendered tables must be byte-identical for -parallel 1 and -parallel 8
// at the same seed.
func TestParallelDeterminism(t *testing.T) {
	outputs := make([]string, 0, 2)
	for _, workers := range []string{"1", "8"} {
		var b strings.Builder
		args := []string{"-quick", "-seed", "1", "-parallel", workers, "-id", "E1,E5,E8,E9,E13"}
		if err := run(context.Background(), args, &b); err != nil {
			t.Fatalf("-parallel %s: %v", workers, err)
		}
		outputs = append(outputs, stripElapsed(b.String()))
	}
	if outputs[0] != outputs[1] {
		t.Errorf("tables differ between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			outputs[0], outputs[1])
	}
}

// TestJSONLSinkDeterminism checks the structured records are also
// byte-identical across worker counts.
func TestJSONLSinkDeterminism(t *testing.T) {
	dir := t.TempDir()
	files := make([]string, 0, 2)
	for _, workers := range []string{"1", "4"} {
		path := filepath.Join(dir, "out"+workers+".jsonl")
		var b strings.Builder
		args := []string{"-quick", "-seed", "3", "-parallel", workers, "-jsonl", path, "-id", "E9"}
		if err := run(context.Background(), args, &b); err != nil {
			t.Fatalf("-parallel %s: %v", workers, err)
		}
		files = append(files, path)
	}
	a, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	bts, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty JSONL output")
	}
	if string(a) != string(bts) {
		t.Errorf("JSONL differs between worker counts:\n%s\nvs\n%s", a, bts)
	}
}

// stripElapsed removes the wall-clock lines, the only legitimate
// run-to-run difference.
func stripElapsed(s string) string {
	lines := strings.Split(s, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if strings.HasPrefix(l, "elapsed:") {
			continue
		}
		kept = append(kept, l)
	}
	return strings.Join(kept, "\n")
}
