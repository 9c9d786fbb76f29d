package sweep

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/pieceset"
	"repro/internal/rng"
)

func example1Base() model.Params {
	return model.Params{
		K: 1, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
}

// example1Grid sweeps the Example 1 (λ0, µ/γ) plane, whose exact boundary
// is λ0* = U_s/(1−µ/γ).
func example1Grid(depth int) Grid {
	xAxis, _ := AxisByName("lambda0")
	yAxis, _ := AxisByName("mu-over-gamma")
	return Grid{
		Base:        example1Base(),
		X:           AxisSpec{Axis: xAxis, Min: 0.25, Max: 6, Cells: 8},
		Y:           AxisSpec{Axis: yAxis, Min: 0, Max: 0.9, Cells: 6},
		RefineDepth: depth,
	}
}

func TestAxisRegistry(t *testing.T) {
	for _, name := range AxisNames() {
		if _, err := AxisByName(name); err != nil {
			t.Errorf("AxisByName(%q) = %v", name, err)
		}
	}
	if _, err := AxisByName("nope"); !errors.Is(err, ErrUnknownAxis) {
		t.Errorf("unknown axis error = %v, want ErrUnknownAxis", err)
	}
}

func TestAxisApply(t *testing.T) {
	base := model.Params{
		K: 3, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{
			pieceset.MustOf(1): 1,
			pieceset.MustOf(2): 2,
			pieceset.MustOf(3): 3,
		},
	}
	cases := []struct {
		axis  string
		v     float64
		check func(pt Point) bool
	}{
		{"lambda0", 2.5, func(pt Point) bool { return pt.Params.Lambda[pieceset.Empty] == 2.5 }},
		{"lambda2", 9, func(pt Point) bool { return pt.Params.Lambda[pieceset.MustOf(2)] == 9 }},
		{"scale", 2, func(pt Point) bool { return pt.Params.Lambda[pieceset.MustOf(3)] == 6 }},
		{"us", 0.5, func(pt Point) bool { return pt.Params.Us == 0.5 }},
		{"mu", 3, func(pt Point) bool { return pt.Params.Mu == 3 }},
		{"gamma", 7, func(pt Point) bool { return pt.Params.Gamma == 7 }},
		{"mu-over-gamma", 0.5, func(pt Point) bool { return pt.Params.Gamma == 2 }},
		{"mu-over-gamma", 0, func(pt Point) bool { return pt.Params.GammaInf() }},
		{"churn", 0.25, func(pt Point) bool { return pt.Scenario.Churn == 0.25 }},
		{"flash-peak", 4, func(pt Point) bool {
			fc, ok := pt.Scenario.Arrival.(kernel.FlashCrowd)
			return ok && fc.Peak == 4
		}},
		{"none", 123, func(pt Point) bool { return pt.Params.Us == 1 }},
	}
	for _, cse := range cases {
		axis, err := AxisByName(cse.axis)
		if err != nil {
			t.Fatal(err)
		}
		pt := Point{Params: cloneParams(base)}
		if err := axis.Apply(&pt, cse.v); err != nil {
			t.Fatalf("%s: %v", cse.axis, err)
		}
		if !cse.check(pt) {
			t.Errorf("axis %s(%g) did not apply: %+v", cse.axis, cse.v, pt.Params)
		}
	}
	// The γ = ∞ spelling must be the validated math.Inf(1), not a huge
	// finite sentinel.
	axis, _ := AxisByName("mu-over-gamma")
	pt := Point{Params: cloneParams(base)}
	if err := axis.Apply(&pt, 0); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(pt.Params.Gamma, 1) {
		t.Errorf("mu-over-gamma=0 gave γ=%v, want +Inf", pt.Params.Gamma)
	}
	if err := pt.Params.Validate(); err != nil {
		t.Errorf("γ=∞ params failed validation: %v", err)
	}
}

func TestAxisApplyDoesNotAliasBase(t *testing.T) {
	g := example1Grid(0)
	if _, err := g.point(3, 0.5); err != nil {
		t.Fatal(err)
	}
	if g.Base.Lambda[pieceset.Empty] != 1 {
		t.Errorf("grid.point mutated the base: λ0 = %v", g.Base.Lambda[pieceset.Empty])
	}
}

func TestCanonicalPoint(t *testing.T) {
	a := Point{Params: example1Base()}
	b := Point{Params: example1Base(), X: 9, Y: 9} // coordinates excluded
	b.Params.Lambda[pieceset.MustOf(1)] = 0        // zero rates excluded
	if canonicalPoint(a) != canonicalPoint(b) {
		t.Errorf("canonical keys differ:\n%s\n%s", canonicalPoint(a), canonicalPoint(b))
	}
	c := Point{Params: example1Base()}
	c.Params.Gamma = math.Inf(1)
	if canonicalPoint(a) == canonicalPoint(c) {
		t.Error("γ=2 and γ=∞ share a canonical key")
	}
	d := Point{Params: example1Base(), Scenario: kernel.Scenario{Churn: 0.5}}
	if canonicalPoint(a) == canonicalPoint(d) {
		t.Error("scenario ignored by canonical key")
	}
	e := Point{Params: example1Base(), Scenario: kernel.Scenario{Arrival: kernel.FlashCrowd{Peak: 3}}}
	f := Point{Params: example1Base(), Scenario: kernel.Scenario{Arrival: kernel.FlashCrowd{Peak: 4}}}
	if canonicalPoint(e) == canonicalPoint(f) {
		t.Error("flash peaks share a canonical key")
	}
}

func TestGridValidation(t *testing.T) {
	xAxis, _ := AxisByName("lambda0")
	good := AxisSpec{Axis: xAxis, Min: 1, Max: 2, Cells: 4}
	cases := []Grid{
		{Base: example1Base(), X: AxisSpec{Axis: xAxis, Min: 1, Max: 2, Cells: 0}, Y: good},
		{Base: example1Base(), X: AxisSpec{Axis: xAxis, Min: 2, Max: 1, Cells: 4}, Y: good},
		{Base: example1Base(), X: AxisSpec{Axis: xAxis, Min: 1, Max: 1, Cells: 4}, Y: good},
		{Base: example1Base(), X: good, Y: good, RefineDepth: -1},
		// NaN fails every comparison and ±Inf yields non-finite centers;
		// both must be rejected before any cell is evaluated.
		{Base: example1Base(), X: AxisSpec{Axis: xAxis, Min: math.NaN(), Max: 5, Cells: 4}, Y: good},
		{Base: example1Base(), X: AxisSpec{Axis: xAxis, Min: 1, Max: math.NaN(), Cells: 4}, Y: good},
		{Base: example1Base(), X: AxisSpec{Axis: xAxis, Min: 0, Max: math.Inf(1), Cells: 1}, Y: good},
		{Base: example1Base(), X: AxisSpec{Axis: xAxis, Min: 1, Max: math.Inf(1), Cells: 4}, Y: good},
		{Base: example1Base(), X: good, Y: AxisSpec{Axis: xAxis, Min: math.Inf(-1), Max: 1, Cells: 4}},
	}
	r := &Runner{Evaluator: Theory{}}
	for i, g := range cases {
		if _, err := g.Run(context.Background(), r); !errors.Is(err, ErrEmptyGrid) {
			t.Errorf("case %d: err = %v, want ErrEmptyGrid", i, err)
		}
	}
}

func TestAdaptiveMatchesDenseBoundary(t *testing.T) {
	g := example1Grid(3)
	adaptive, err := g.Run(context.Background(), &Runner{Evaluator: Theory{}})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := g.RunDense(context.Background(), &Runner{Evaluator: Theory{}})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.NX != dense.NX || adaptive.NY != dense.NY {
		t.Fatalf("raster dims differ: %dx%d vs %dx%d", adaptive.NX, adaptive.NY, dense.NX, dense.NY)
	}
	// Equal boundary resolution: every row's class crossings agree within
	// one fine cell width.
	w := dense.CellWidth()
	for iy := 0; iy < dense.NY; iy++ {
		da, dd := adaptive.XCrossings(iy), dense.XCrossings(iy)
		if len(da) != len(dd) {
			t.Fatalf("row %d: %d adaptive crossings vs %d dense", iy, len(da), len(dd))
		}
		for i := range dd {
			if math.Abs(da[i]-dd[i]) > w+1e-12 {
				t.Errorf("row %d crossing %d: adaptive %g vs dense %g (cell width %g)", iy, i, da[i], dd[i], w)
			}
		}
	}
	// The analytic boundary λ0* = 1/(1−µ/γ) must sit within one cell of
	// the swept crossing wherever it lies inside the x range.
	for iy := 0; iy < dense.NY; iy++ {
		r := adaptive.Ys[iy]
		want := 1 / (1 - r)
		if want <= adaptive.Xs[0] || want >= adaptive.Xs[adaptive.NX-1] {
			continue
		}
		xs := adaptive.XCrossings(iy)
		if len(xs) == 0 {
			t.Errorf("row %d (µ/γ=%g): no crossing, want one near %g", iy, r, want)
			continue
		}
		if math.Abs(xs[0]-want) > w {
			t.Errorf("row %d: crossing %g vs analytic %g (cell width %g)", iy, xs[0], want, w)
		}
	}
}

func TestAdaptiveEvaluatesFewerCells(t *testing.T) {
	g := example1Grid(3)
	adaptive, err := g.Run(context.Background(), &Runner{Evaluator: Theory{}})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := g.RunDense(context.Background(), &Runner{Evaluator: Theory{}})
	if err != nil {
		t.Fatal(err)
	}
	if dense.Stats.Evaluated != dense.NX*dense.NY {
		t.Errorf("dense evaluated %d, want %d", dense.Stats.Evaluated, dense.NX*dense.NY)
	}
	if 5*adaptive.Stats.Evaluated > dense.Stats.Evaluated {
		t.Errorf("adaptive evaluated %d cells, want ≥5× fewer than dense %d",
			adaptive.Stats.Evaluated, dense.Stats.Evaluated)
	}
}

func TestRunnerDedupAndCache(t *testing.T) {
	// The scale axis saturates nothing here, but two identical points must
	// collapse to one evaluation, and a second call must be all hits.
	r := &Runner{Evaluator: Theory{}}
	pt := Point{Params: example1Base()}
	cells, err := r.Points(context.Background(), "dedup", []Point{pt, pt, pt})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 || cells[0].Class != cells[2].Class {
		t.Fatalf("cells = %+v", cells)
	}
	if s := r.Stats(); s.Evaluated != 1 || s.Deduped != 2 {
		t.Errorf("stats = %+v, want 1 evaluated / 2 deduped", s)
	}
	if _, err := r.Points(context.Background(), "again", []Point{pt}); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Evaluated != 1 || s.CacheHits != 1 {
		t.Errorf("stats after reuse = %+v, want 1 evaluated / 1 hit", s)
	}
}

func rastersEqual(a, b *Map) bool {
	if a.NX != b.NX || a.NY != b.NY {
		return false
	}
	for i := range a.Cells {
		if a.Cells[i].Class != b.Cells[i].Class || a.Cells[i].Value != b.Cells[i].Value {
			return false
		}
	}
	return true
}

// TestSweepDeterminismAcrossWorkers pins the full pipeline — adaptive
// refinement over an empirical evaluator, all three emitters — to
// byte-identical output at workers 1, 2, and 8.
func TestSweepDeterminismAcrossWorkers(t *testing.T) {
	xAxis, _ := AxisByName("lambda0")
	yAxis, _ := AxisByName("churn")
	g := Grid{
		Base:        example1Base(),
		X:           AxisSpec{Axis: xAxis, Min: 0.5, Max: 6.5, Cells: 3},
		Y:           AxisSpec{Axis: yAxis, Min: 0, Max: 1, Cells: 2},
		RefineDepth: 1,
	}
	eval := &Empirical{Horizon: 40, PeerCap: 120, Replicas: 2}
	var outputs []string
	for _, workers := range []int{1, 2, 8} {
		var out bytes.Buffer
		m, err := g.Run(context.Background(), &Runner{Evaluator: eval, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteASCII(&out, m); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(&out, m); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSONL(&out, m); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, out.String())
	}
	if outputs[0] != outputs[1] || outputs[0] != outputs[2] {
		t.Errorf("sweep output differs across worker counts:\n--- w1 ---\n%s\n--- w2 ---\n%s\n--- w8 ---\n%s",
			outputs[0], outputs[1], outputs[2])
	}
}

// TestStreamIndependentOfBatching pins the memo-key stream contract: a
// cell evaluated alone and the same cell evaluated inside a larger batch
// see the same RNG stream.
func TestStreamIndependentOfBatching(t *testing.T) {
	eval := &recordingEvaluator{draws: map[string]uint64{}}
	pt := func(l float64) Point {
		p := example1Base()
		p.Lambda = map[pieceset.Set]float64{pieceset.Empty: l}
		return Point{Params: p}
	}
	r1 := &Runner{Evaluator: eval}
	if _, err := r1.Points(context.Background(), "solo", []Point{pt(2)}); err != nil {
		t.Fatal(err)
	}
	solo := eval.draws[canonicalPoint(pt(2))]
	eval.draws = map[string]uint64{}
	r2 := &Runner{Evaluator: eval}
	if _, err := r2.Points(context.Background(), "batched", []Point{pt(1), pt(3), pt(2), pt(4)}); err != nil {
		t.Fatal(err)
	}
	if got := eval.draws[canonicalPoint(pt(2))]; got != solo {
		t.Errorf("cell stream depends on batch composition: %d vs %d", got, solo)
	}
}

type recordingEvaluator struct {
	mu    sync.Mutex
	draws map[string]uint64
}

func (e *recordingEvaluator) Name() string        { return "recording" }
func (e *recordingEvaluator) Fingerprint() string { return "v1" }
func (e *recordingEvaluator) Evaluate(ctx context.Context, pt Point, r *rng.RNG) (Cell, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.draws[canonicalPoint(pt)] = r.Uint64()
	return Cell{Class: "x"}, nil
}

func TestGlyphs(t *testing.T) {
	g := Glyphs([]string{"stable", "stable+sim", "transient", "tx"})
	seen := map[rune]bool{}
	for class, glyph := range g {
		if seen[glyph] {
			t.Errorf("glyph %c assigned twice (class %s)", glyph, class)
		}
		seen[glyph] = true
	}
}

func TestEmittersSmoke(t *testing.T) {
	g := example1Grid(1)
	m, err := g.Run(context.Background(), &Runner{Evaluator: Theory{}})
	if err != nil {
		t.Fatal(err)
	}
	var csv, jsonl, ascii bytes.Buffer
	if err := WriteCSV(&csv, m); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&jsonl, m); err != nil {
		t.Fatal(err)
	}
	if err := WriteASCII(&ascii, m); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "lambda0,mu-over-gamma,class,value\n") {
		t.Errorf("csv header wrong: %q", csv.String()[:40])
	}
	wantLines := m.NX*m.NY + 1
	if got := strings.Count(jsonl.String(), "\n"); got != wantLines {
		t.Errorf("jsonl lines = %d, want %d", got, wantLines)
	}
	for _, want := range []string{"positive-recurrent", "transient", "evaluated"} {
		if !strings.Contains(ascii.String(), want) {
			t.Errorf("ascii output missing %q:\n%s", want, ascii.String())
		}
	}
}
