package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// runWithStore sweeps g into a cell-store-backed cache at path and
// returns the map (the store file is left footer-clean).
func runWithStore(t *testing.T, g Grid, path string) *Map {
	t.Helper()
	cache := NewCache()
	cs, loaded, err := OpenCellStore(path, cache)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 0 {
		t.Fatalf("fresh store loaded %d cells", loaded)
	}
	m, err := g.Run(context.Background(), &Runner{Evaluator: Theory{}, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	return m
}

// goldenExport is the JSONL cell stream the retired JSONL journal wrote
// for example1Grid(2) under the Theory evaluator. The store export must
// keep rendering exactly these bytes.
const goldenExport = "testdata/example1_depth2_cells.jsonl"

// TestCellStoreExportMatchesJournal pins the export contract: a sweep
// spilled through the columnar cell store exports (via StoreCellsToJSONL)
// the byte-identical JSONL stream the retired journal wrote for the same
// sweep, checked in as a golden file.
func TestCellStoreExportMatchesJournal(t *testing.T) {
	journal, err := os.ReadFile(goldenExport)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cells.store")
	if m := runWithStore(t, example1Grid(2), path); m.Stats.Evaluated == 0 {
		t.Fatal("sweep evaluated no cells")
	}

	r, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Clean() {
		t.Error("closed cell store has no valid footer")
	}
	var back bytes.Buffer
	if err := StoreCellsToJSONL(&back, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), journal) {
		t.Fatalf("store export differs from %s\nstore:\n%s\ngolden:\n%s", goldenExport, back.Bytes(), journal)
	}
}

// TestCellStoreResume: reopening a clean cell store replays every cell,
// and the resumed sweep evaluates nothing yet reproduces the map.
func TestCellStoreResume(t *testing.T) {
	g := example1Grid(2)
	path := filepath.Join(t.TempDir(), "cells.store")
	first := runWithStore(t, g, path)

	resumed := NewCache()
	cs, loaded, err := OpenCellStore(path, resumed)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if loaded != first.Stats.Evaluated {
		t.Errorf("resume loaded %d cells, want %d", loaded, first.Stats.Evaluated)
	}
	second, err := g.Run(context.Background(), &Runner{Evaluator: Theory{}, Cache: resumed})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Evaluated != 0 {
		t.Errorf("resumed sweep evaluated %d cells, want 0", second.Stats.Evaluated)
	}
	if !rastersEqual(first, second) {
		t.Error("resumed map differs from original")
	}
}

// TestCellStoreTornResume is the crash-recovery satellite at the sweep
// layer: a sweep resumed from a torn cell store (killed mid-write, file
// truncated at an arbitrary byte) must produce exactly the map a resume
// from the intact store produces, re-evaluating only the cells whose
// blocks were lost. Afterwards the store file is clean again.
func TestCellStoreTornResume(t *testing.T) {
	g := example1Grid(1)
	dir := t.TempDir()
	full := filepath.Join(dir, "cells.store")
	intactMap := runWithStore(t, g, full)
	evaluated := intactMap.Stats.Evaluated
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// The intact-resume baseline: the map every torn-store resume must
	// reproduce.
	icache := NewCache()
	ics, _, err := OpenCellStore(full, icache)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := g.Run(context.Background(), &Runner{Evaluator: Theory{}, Cache: icache})
	if err != nil {
		t.Fatal(err)
	}
	if err := ics.Close(); err != nil {
		t.Fatal(err)
	}
	if baseline.Stats.Evaluated != 0 || !rastersEqual(intactMap, baseline) {
		t.Fatal("intact-store resume baseline differs from the original map")
	}

	// Tear the file at offsets spanning header-only through nearly-whole,
	// plus every 257th byte for coverage of mid-block cuts.
	offs := []int{0, 1, 16, len(data) / 2, len(data) - 1}
	for k := 20; k < len(data); k += 257 {
		offs = append(offs, k)
	}
	for _, k := range offs {
		torn := filepath.Join(dir, "torn.store")
		if err := os.WriteFile(torn, data[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		cache := NewCache()
		cs, loaded, err := OpenCellStore(torn, cache)
		if err != nil {
			t.Fatalf("cut at %d: open: %v", k, err)
		}
		if loaded > evaluated {
			t.Fatalf("cut at %d: loaded %d cells, more than the %d ever written", k, loaded, evaluated)
		}
		m, err := g.Run(context.Background(), &Runner{Evaluator: Theory{}, Cache: cache})
		if err != nil {
			t.Fatalf("cut at %d: run: %v", k, err)
		}
		if m.Stats.Evaluated != evaluated-loaded {
			t.Errorf("cut at %d: re-evaluated %d cells, want %d", k, m.Stats.Evaluated, evaluated-loaded)
		}
		if !rastersEqual(m, baseline) {
			t.Fatalf("cut at %d: torn-store resume map differs from intact-store resume", k)
		}
		if err := cs.Close(); err != nil {
			t.Fatalf("cut at %d: close: %v", k, err)
		}
		// The resumed-and-closed store must be strictly clean and hold
		// every cell again.
		r, err := store.Open(torn)
		if err != nil {
			t.Fatalf("cut at %d: reopen repaired store: %v", k, err)
		}
		if !r.Clean() {
			t.Errorf("cut at %d: repaired store has no footer", k)
		}
		check := NewCache()
		n, err := loadCells(r, func(key, point string, cell Cell) error {
			check.cells[key] = cell
			return nil
		})
		r.Close()
		if err != nil {
			t.Fatalf("cut at %d: reload repaired store: %v", k, err)
		}
		if n != evaluated {
			t.Errorf("cut at %d: repaired store holds %d cells, want %d", k, n, evaluated)
		}
	}
}

// TestCellStoreDeterministicAcrossWorkers pins the spill determinism
// contract: one sweep, any worker count, identical bytes on disk.
func TestCellStoreDeterministicAcrossWorkers(t *testing.T) {
	xAxis, _ := AxisByName("lambda0")
	yAxis, _ := AxisByName("churn")
	g := Grid{
		Base:        example1Base(),
		X:           AxisSpec{Axis: xAxis, Min: 0.5, Max: 6.5, Cells: 3},
		Y:           AxisSpec{Axis: yAxis, Min: 0, Max: 1, Cells: 2},
		RefineDepth: 1,
	}
	eval := &Empirical{Horizon: 40, PeerCap: 120, Replicas: 2}
	dir := t.TempDir()
	render := func(workers int) []byte {
		path := filepath.Join(dir, "w.store")
		os.Remove(path)
		cache := NewCache()
		cs, _, err := OpenCellStore(path, cache)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Run(context.Background(), &Runner{Evaluator: eval, Workers: workers, Cache: cache}); err != nil {
			t.Fatal(err)
		}
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	base := render(1)
	for _, w := range []int{2, 8} {
		if got := render(w); !bytes.Equal(got, base) {
			t.Fatalf("cell store bytes differ between workers=1 and workers=%d", w)
		}
	}
}

// TestCellStoreRejectsForeignFile: opening a store written with another
// schema must fail with the store layer's schema error, not misload.
func TestCellStoreRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "foreign.store")
	w, err := store.Create(path, store.Schema{App: "other/1", Cols: []store.Column{{Name: "x", Type: store.Float64}}}, store.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenCellStore(path, NewCache()); err == nil {
		t.Fatal("foreign store accepted")
	}
}
