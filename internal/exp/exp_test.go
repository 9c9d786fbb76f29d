package exp

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/golden"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("expected 18 experiments, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Artifact == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("e5")
	if err != nil || e.ID != "E5" {
		t.Errorf("ByID(e5) = %v, %v", e.ID, err)
	}
	if _, err := ByID("E99"); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("unknown id err = %v", err)
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID:      "T",
		Title:   "demo",
		Headers: []string{"a", "bb"},
	}
	tb.AddRow("x", "y")
	tb.AddRow("longer", "z")
	tb.AddNote("n = %d", 3)
	out := tb.Render()
	for _, want := range []string{"T — demo", "a", "bb", "longer", "note: n = 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// checkGolden is the per-experiment equivalence check (DESIGN.md §15): it
// renders experiment id as "experiments -quick -seed 1 -id ID -jsonl F"
// does, once per worker count, and compares the table plus a digest of
// the JSONL record stream with testdata/ID.golden. The legs above one
// worker run with telemetry and tracing installed, as -report and -trace
// install them. It also fails on any DISAGREE cell.
func checkGolden(t *testing.T, id string, workers ...int) {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	legs := make([][]byte, len(workers))
	for i, w := range workers {
		legs[i] = renderGolden(t, e, w)
	}
	golden.Check(t, id+".golden", legs...)
	if bytes.Contains(legs[0], []byte("DISAGREE")) {
		t.Errorf("%s disagrees with theory:\n%s", id, legs[0])
	}
}

func renderGolden(t *testing.T, e Experiment, workers int) []byte {
	t.Helper()
	if workers > 1 {
		dir := t.TempDir()
		tel := cli.Telemetry{ReportPath: filepath.Join(dir, "report.json"), TracePath: filepath.Join(dir, "trace.json")}
		if err := tel.Start("experiments", io.Discard); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := tel.Finish(); err != nil {
				t.Error(err)
			}
		}()
	}
	var jsonl bytes.Buffer
	tb, err := e.Run(Config{Quick: true, Seed: 1, Workers: workers, Sink: engine.NewJSONLSink(&jsonl)})
	if err != nil {
		t.Fatalf("%s workers=%d: %v", e.ID, workers, err)
	}
	return []byte(tb.Render() + "jsonl: " + golden.Digest(jsonl.Bytes()))
}

func TestE1Quick(t *testing.T)  { checkGolden(t, "E1", 1, 8) }
func TestE2Quick(t *testing.T)  { checkGolden(t, "E2", 1, 8) }
func TestE3Quick(t *testing.T)  { checkGolden(t, "E3", 1, 8) }
func TestE4Quick(t *testing.T)  { checkGolden(t, "E4", 1, 8) }
func TestE5Quick(t *testing.T)  { checkGolden(t, "E5", 1, 8) }
func TestE6Quick(t *testing.T)  { checkGolden(t, "E6", 1, 8) }
func TestE7Quick(t *testing.T)  { checkGolden(t, "E7", 1, 8) }
func TestE8Quick(t *testing.T)  { checkGolden(t, "E8", 1, 8) }
func TestE9Quick(t *testing.T)  { checkGolden(t, "E9", 1, 8) }
func TestE11Quick(t *testing.T) { checkGolden(t, "E11", 1, 8) }
func TestE12Quick(t *testing.T) { checkGolden(t, "E12", 1, 8) }
func TestE13Quick(t *testing.T) { checkGolden(t, "E13", 1, 8) }
func TestE15Quick(t *testing.T) { checkGolden(t, "E15", 1, 8) }
func TestE16Quick(t *testing.T) { checkGolden(t, "E16", 1, 8) }
func TestE17Quick(t *testing.T) { checkGolden(t, "E17", 1, 8) }
func TestE18Quick(t *testing.T) { checkGolden(t, "E18", 1, 8) }

func TestE10Quick(t *testing.T) { checkGolden(t, "E10", 1, 8) }
func TestE14Quick(t *testing.T) { checkGolden(t, "E14", 1, 8) }

func TestConfigKnobs(t *testing.T) {
	q := Config{Quick: true}
	if q.pick(1, 2) != 1 || q.pickInt(3, 4) != 3 {
		t.Error("quick knobs wrong")
	}
	f := Config{}
	if f.pick(1, 2) != 2 || f.pickInt(3, 4) != 4 {
		t.Error("full knobs wrong")
	}
	if f.seed() != 1 || (Config{Seed: 9}).seed() != 9 {
		t.Error("seed default wrong")
	}
}

func TestE15Knobs(t *testing.T) {
	tb, err := RunE15(Config{Quick: true, Seed: 1, FlashPeak: 9, Churn: 1.25})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.Title, "×9") || !strings.Contains(tb.Title, "δ=1.25") {
		t.Errorf("knobs not reflected in title: %s", tb.Title)
	}
}
