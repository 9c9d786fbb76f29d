package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/golden"
	"repro/internal/store"
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

// TestGolden pins the binary's record outputs (DESIGN.md §15): the E16
// run with -jsonl and -store at -parallel 1 and 8, the 8 leg with -trace
// and -report live, must print the recorded tables and write the recorded
// JSONL and store bytes, and the store must export back to the JSONL byte
// for byte. internal/exp's TestE*Quick pin every table and JSONL stream.
func TestGolden(t *testing.T) {
	var legs [][]byte
	for _, workers := range []string{"1", "8"} {
		dir := t.TempDir()
		jsonlPath, storePath := filepath.Join(dir, "e16.jsonl"), filepath.Join(dir, "e16.store")
		args := []string{"-quick", "-seed", "1", "-parallel", workers, "-id", "E16", "-jsonl", jsonlPath, "-store", storePath}
		if workers != "1" {
			args = append(args, "-trace", filepath.Join(dir, "trace.json"), "-report", filepath.Join(dir, "report.json"))
		}
		var b strings.Builder
		if err := run(context.Background(), args, &b); err != nil {
			t.Fatalf("-parallel %s: %v", workers, err)
		}
		jsonl, err := os.ReadFile(jsonlPath)
		if err != nil {
			t.Fatal(err)
		}
		st, err := os.ReadFile(storePath)
		if err != nil {
			t.Fatal(err)
		}
		r, err := store.NewReader(bytes.NewReader(st), int64(len(st)))
		if err != nil {
			t.Fatal(err)
		}
		var exported bytes.Buffer
		if err := engine.StoreToJSONL(&exported, r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(exported.Bytes(), jsonl) {
			t.Errorf("-parallel %s: the store does not export to the run's JSONL", workers)
		}
		legs = append(legs, []byte(stripElapsed(b.String())+"jsonl: "+golden.Digest(jsonl)+"store: "+golden.Digest(st)))
	}
	golden.Check(t, "e16.golden", legs...)
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
