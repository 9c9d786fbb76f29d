package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 9, ok: false},
		{n: 19, ok: false},
		{n: 20, want: 50, ok: true},
		{n: 39, want: 50, ok: true},
		{n: 40, want: 75, ok: true},
		{n: 99, want: 75, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 199, want: 90, ok: true},
		{n: 200, want: 95, ok: true},
		{n: 999, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(1-got/100) < 10-1e-9 {
			t.Errorf("n=%d: p%v leaves fewer than ten samples beyond it", c.n, got)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := percentile([]float64{0, 10}, 90); math.Abs(got-9) > 1e-12 {
		t.Errorf("p90 of {0,10} = %v, want 9", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values should be NaN")
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pool", Layer: "engine", Start: ms(0), End: ms(100)},
		// Two parallel tasks overlapping in [20, 50]: together they cover
		// [10, 70], 60 ms of the parent, not the 80 ms their durations sum to.
		{ID: 2, Parent: 1, Name: "task", Layer: "sim", Start: ms(10), End: ms(50)},
		{ID: 3, Parent: 1, Name: "task", Layer: "sim", Start: ms(20), End: ms(60)},
		{ID: 4, Parent: 1, Name: "sink", Layer: "store", Start: ms(55), End: ms(70)},
		// A child running past its parent counts only inside the parent.
		{ID: 5, Parent: 4, Name: "write", Layer: "store", Start: ms(65), End: ms(80)},
		// The round has no layer and no self time.
		{ID: 6, Name: "round", Start: ms(0), End: ms(120)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"engine": ms(40),      // 100 − |[10, 70]|
		"sim":    ms(80),      // leaves
		"store":  ms(10 + 15), // sink 15 − |[65, 70]| + write 15
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if c := coverage(spans, []interval{{ms(0), ms(120)}}); math.Abs(c-100.0/120) > 1e-12 {
		t.Errorf("coverage = %v, want %v", c, 100.0/120)
	}
}

func TestUnionLen(t *testing.T) {
	iv := []interval{{ms(5), ms(10)}, {ms(0), ms(3)}, {ms(2), ms(4)}, {ms(10), ms(12)}, {ms(6), ms(7)}}
	if got := unionLen(iv); got != ms(4+7) {
		t.Errorf("unionLen = %v, want 11ms", got)
	}
	if unionLen(nil) != 0 {
		t.Error("unionLen of nothing should be 0")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	gens := map[string]func(uint64) (any, error){
		"replicas-exact": func(s uint64) (any, error) { return genReplicas(s) },
		"hybrid-scale":   func(s uint64) (any, error) { return genHybrid(s) },
		"phasemap-adaptive": func(s uint64) (any, error) {
			in, err := genPhasemap(s)
			if err != nil {
				return nil, err
			}
			// Axes carry functions, which never compare equal: compare
			// their names and the numbers.
			g := in.Grid
			return []any{g.Base, g.RefineDepth, in.Evaluator,
				g.X.Axis.Name, g.X.Min, g.X.Max, g.X.Cells,
				g.Y.Axis.Name, g.Y.Min, g.Y.Max, g.Y.Cells}, nil
		},
		"exact-solve": func(s uint64) (any, error) { return genExact(s) },
	}
	for name, gen := range gens {
		for _, seed := range []uint64{1, 2, 7, 1 << 40} {
			a, err := gen(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			b, err := gen(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s seed %d: two generations differ", name, seed)
			}
			c, err := gen(seed + 1)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed+1, err)
			}
			if reflect.DeepEqual(a, c) {
				t.Errorf("%s: seeds %d and %d generate the same inputs", name, seed, seed+1)
			}
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with the
// metric tables and workloads perfbench reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in perfbench", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, perfbench %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in perfbench", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, perfbench %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in perfbench", i, m, d)
		}
	}
}
