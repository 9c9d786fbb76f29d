package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
)

func TestRunBasic(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-k", "2", "-horizon", "20", "-samples", "4", "-seed", "3"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"theorem 1", "final population", "mean population", "uploads"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllPolicies(t *testing.T) {
	for _, pol := range []string{"random-useful", "rarest-first", "most-common-first", "sequential-lowest"} {
		var b strings.Builder
		if err := run([]string{"-horizon", "10", "-policy", pol}, &b); err != nil {
			t.Errorf("policy %s: %v", pol, err)
		}
		if !strings.Contains(b.String(), pol) {
			t.Errorf("policy %s not echoed", pol)
		}
	}
}

func TestRunDeterministicAcrossSeeds(t *testing.T) {
	var b1, b2 strings.Builder
	args := []string{"-horizon", "15", "-seed", "9"}
	if err := run(args, &b1); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("same seed produced different output")
	}
}

func TestRunArrivalFlags(t *testing.T) {
	var b strings.Builder
	err := run([]string{
		"-k", "3", "-gamma", "inf", "-us", "0.5", "-horizon", "10",
		"-arrive", "1=0.4", "-arrive", "2=0.4", "-arrive", "3=0.4",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-policy", "bogus"},
		{"-gamma", "x"},
		{"-mu", "0"},
		{"-horizon", "0"},
		{"-horizon", "-5"},
		{"-horizon", "nan"},
		{"-horizon", "inf"},
	} {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestGolden pins the replicated trajectory run (DESIGN.md §15): at
// -parallel 1 and 8, the 8 leg with -trace and -report live, the run must
// print the recorded trajectory, quantiles and summary and write the
// recorded JSONL bytes.
func TestGolden(t *testing.T) {
	var legs [][]byte
	for _, workers := range []string{"1", "8"} {
		dir := t.TempDir()
		jsonlPath := filepath.Join(dir, "p2psim.jsonl")
		args := []string{
			"-k", "3", "-lambda0", "3", "-horizon", "60", "-samples", "10", "-replicas", "4",
			"-quantiles", "-seed", "1", "-parallel", workers, "-jsonl", jsonlPath,
		}
		if workers != "1" {
			args = append(args, "-trace", filepath.Join(dir, "trace.json"), "-report", filepath.Join(dir, "report.json"))
		}
		var b strings.Builder
		if err := run(args, &b); err != nil {
			t.Fatalf("-parallel %s: %v", workers, err)
		}
		jsonl, err := os.ReadFile(jsonlPath)
		if err != nil {
			t.Fatal(err)
		}
		legs = append(legs, []byte(b.String()+"jsonl: "+golden.Digest(jsonl)))
	}
	golden.Check(t, "trajectory.golden", legs...)
}

func TestRunTraceOff(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-horizon", "10", "-traj=false"}, &b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "one-club") {
		t.Error("-traj=false still printed the trajectory table")
	}
	if !strings.Contains(b.String(), "final population") {
		t.Error("summary missing with -traj=false")
	}
}

func TestRunCSV(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-horizon", "10", "-samples", "5", "-csv"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "t,n,seeds,one_club,missing" {
		t.Errorf("csv header = %q", lines[0])
	}
	if len(lines) < 5 {
		t.Errorf("csv too short: %d lines", len(lines))
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != 4 {
			t.Errorf("malformed csv row %q", l)
		}
	}
}
