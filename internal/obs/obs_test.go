package obs

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// replay drives a Series through a piecewise-constant signal given as
// (eventTime, newValue) steps, then seals at end.
func replay(s *Series, signal *float64, steps [][2]float64, end float64) {
	for _, st := range steps {
		// The tap fires post-event: the probe already sees the new value.
		*signal = st[1]
		s.OnEvent(st[0], 0, 0)
	}
	s.Seal(end)
}

func TestSeriesLadderValues(t *testing.T) {
	var v float64 = 1
	s := NewSeries("x", 0, 1, 64, func() float64 { return v })
	replay(s, &v, [][2]float64{{0.5, 3}, {2.25, 7}, {5.5, 2}}, 6)
	// Signal: 1 on [0, 0.5), 3 on [0.5, 2.25), 7 on [2.25, 5.5), 2 after.
	want := []Point{{0, 1}, {1, 3}, {2, 3}, {3, 7}, {4, 7}, {5, 7}, {6, 2}}
	if !reflect.DeepEqual(s.Points(), want) {
		t.Errorf("points = %v, want %v", s.Points(), want)
	}
}

// TestSeriesEventCountInvariance is the decimation determinism invariant:
// the same signal path realized with different event counts (extra no-op
// events that do not change the value) must emit byte-identical points.
func TestSeriesEventCountInvariance(t *testing.T) {
	steps := [][2]float64{{0.7, 2}, {1.9, 5}, {4.2, 1}, {9.8, 4}}
	run := func(noise bool) []Point {
		var v float64
		s := NewSeries("x", 0, 0.25, 16, func() float64 { return v })
		last := 0.0
		for _, st := range steps {
			if noise {
				// Interleave time-ordered no-op events before the step.
				for i := 1; i <= 50; i++ {
					u := last + (st[0]-last)*float64(i)/51
					s.OnEvent(u, 0, 0) // value unchanged
				}
			}
			v = st[1]
			s.OnEvent(st[0], 0, 0)
			last = st[0]
		}
		s.Seal(12)
		return append([]Point(nil), s.Points()...)
	}
	sparse, dense := run(false), run(true)
	if !reflect.DeepEqual(sparse, dense) {
		t.Errorf("decimated output depends on event count:\n%v\nvs\n%v", sparse, dense)
	}
}

func TestSeriesCapacityAndDoubling(t *testing.T) {
	var v float64
	s := NewSeries("x", 0, 1, 8, func() float64 { return v })
	for i := 1; i <= 1000; i++ {
		v = float64(i)
		s.OnEvent(float64(i), 0, 0)
	}
	s.Seal(1000)
	pts := s.Points()
	if len(pts) > 8 {
		t.Fatalf("capacity exceeded: %d points", len(pts))
	}
	// Ladder invariant: evenly spaced from the anchor, spacing a power-of-two
	// multiple of dt0, values equal to the signal at the ladder time.
	dt := pts[1].T - pts[0].T
	if math.Log2(dt) != math.Trunc(math.Log2(dt)) {
		t.Errorf("spacing %v is not a power-of-two multiple of dt0=1", dt)
	}
	for i, p := range pts {
		if p.T != float64(i)*dt {
			t.Errorf("point %d at %v, want %v", i, p.T, float64(i)*dt)
		}
		// Signal value at ladder time τ is floor(τ) for τ ≥ 1 (the event at
		// integer time sets v to that integer; the value AT τ is the last
		// event's value, i.e. τ itself at integer ladder times ≥ 1).
		if p.T >= 1 && p.V != p.T {
			t.Errorf("point %d = %+v, want value %v", i, p, p.T)
		}
	}
}

// TestBoundedSeriesClampsOvershoot: a fixed-horizon ladder must neither
// emit points past the bound nor let the final event's overshoot overflow
// the capacity into a resolution-halving compress.
func TestBoundedSeriesClampsOvershoot(t *testing.T) {
	var v float64 = 1
	s := NewBoundedSeries("x", 0, 5, 22, 100, func() float64 { return v })
	// Sparse events, final one overshooting the bound by several ladder
	// steps (the low-event-rate regime).
	v = 2
	s.OnEvent(12, 0, 0)
	v = 3
	s.OnEvent(160, 0, 0) // crosses the bound: ladder completes through 100
	v = 99
	s.OnEvent(170, 0, 0) // past the bound: ignored
	s.Seal(170)
	pts := s.Points()
	if last := pts[len(pts)-1]; last.T != 100 {
		t.Fatalf("last point at t=%v, want the bound 100", last.T)
	}
	if len(pts) != 21 {
		t.Fatalf("%d points, want 21 (no compress)", len(pts))
	}
	for i, p := range pts {
		if p.T != float64(5*i) {
			t.Fatalf("ladder compressed: point %d at %v", i, p.T)
		}
		want := 1.0
		if p.T > 12 {
			want = 2 // the value holding on (12, 160): events past the bound never leak in
		}
		if p.V != want {
			t.Errorf("point %+v, want value %v", p, want)
		}
	}
	if NewBoundedSeries("y", 0, 1, 8, 10, func() float64 { return 0 }) == nil {
		t.Fatal("bounded constructor failed")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bound before start accepted")
			}
		}()
		NewBoundedSeries("z", 5, 1, 8, 3, func() float64 { return 0 })
	}()
}

func TestSeriesValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewSeries("x", 0, 0, 8, func() float64 { return 0 }) },
		func() { NewSeries("x", 0, 1, 2, func() float64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid series config did not panic")
				}
			}()
			f()
		}()
	}
}

func TestWatchHitAndMark(t *testing.T) {
	w := NewPopulationWatch("hit", 10, false)
	w.OnEvent(1, 0, 5)
	if w.Hit() {
		t.Fatal("hit below threshold")
	}
	w.OnEvent(2, 0, 10)
	w.OnEvent(3, 0, 50)
	if !w.Hit() || w.Time() != 2 {
		t.Fatalf("hit=%v t=%v, want first crossing at t=2", w.Hit(), w.Time())
	}
	if w.Halted() {
		t.Error("non-stop watch halted")
	}
	var snap Snapshot
	w.EmitTo(&snap)
	if snap.Marks["hit"] != 2 {
		t.Errorf("mark = %v, want 2", snap.Marks["hit"])
	}
	// A never-hit watch emits nothing.
	var empty Snapshot
	NewPopulationWatch("no", 1e9, true).EmitTo(&empty)
	if len(empty.Marks) != 0 {
		t.Error("unhit watch emitted a mark")
	}
}

func TestWatchStops(t *testing.T) {
	w := NewWatch("stop", true, func(t, _ float64) bool { return t >= 5 })
	set := NewSet(w)
	set.OnEvent(1, 0, 0)
	if set.Halted() {
		t.Fatal("halted early")
	}
	set.OnEvent(6, 0, 0)
	if !set.Halted() {
		t.Fatal("stop watch did not halt the set")
	}
}

// TestSojournLittleIdentity property-tests the tracker on synthetic
// arrival/departure streams where Little's law is an exact identity: when
// every entity departs within the window and the window spans first
// arrival to last departure, L·T = Σ sojourns exactly (the occupancy
// integral is the union of presence intervals), so L = λW up to float
// round-off.
func TestSojournLittleIdentity(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		r := rng.New(seed)
		s := NewSojourn("s")
		type ev struct {
			t      float64
			tag    uint64
			arrive bool
		}
		var evs []ev
		clock := 0.0
		for tag := uint64(0); tag < 200; tag++ {
			clock += r.Exp(2)
			evs = append(evs, ev{clock, tag, true})
			evs = append(evs, ev{clock + r.Exp(0.5), tag, false})
		}
		// Deliver in time order.
		for {
			best := -1
			for i, e := range evs {
				if best < 0 || e.t < evs[best].t {
					best = i
				}
			}
			if best < 0 {
				break
			}
			e := evs[best]
			evs = append(evs[:best], evs[best+1:]...)
			if e.arrive {
				s.Arrive(e.tag, e.t)
			} else {
				s.Depart(e.tag, e.t)
			}
		}
		if s.Open() != 0 {
			t.Fatalf("seed %d: %d entities still open", seed, s.Open())
		}
		gap := s.LittleGap()
		if math.Abs(gap) > 1e-9*(1+s.L()) {
			t.Errorf("seed %d: Little residual %v (L=%v λ=%v W=%v)",
				seed, gap, s.L(), s.Lambda(), s.Durations().Mean())
		}
		if s.Arrivals() != 200 || s.Durations().N() != 200 {
			t.Errorf("seed %d: counts wrong", seed)
		}
		if s.Median() <= 0 || s.P90() < s.Median() {
			t.Errorf("seed %d: quantiles inconsistent: p50=%v p90=%v", seed, s.Median(), s.P90())
		}
	}
}

func TestSojournTagMisuse(t *testing.T) {
	s := NewSojourn("s")
	s.Arrive(1, 0)
	for _, f := range []func(){
		func() { s.Arrive(1, 1) },
		func() { s.Depart(2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("tag misuse did not panic")
				}
			}()
			f()
		}()
	}
}

func TestQuantilesObserver(t *testing.T) {
	v := 0.0
	q := NewQuantiles("n", func() float64 { return v }, 0.5, 0.9)
	r := rng.New(5)
	for i := 0; i < 20000; i++ {
		v = r.Float64()
		q.OnEvent(float64(i), 0, 0)
	}
	if p50 := q.Value(0); math.Abs(p50-0.5) > 0.02 {
		t.Errorf("p50 = %v", p50)
	}
	if p90 := q.Value(1); math.Abs(p90-0.9) > 0.02 {
		t.Errorf("p90 = %v", p90)
	}
	var snap Snapshot
	q.EmitTo(&snap)
	if _, ok := snap.Values["n.p50"]; !ok {
		t.Errorf("missing n.p50 in %v", snap.Values)
	}
	if _, ok := snap.Values["n.p90"]; !ok {
		t.Errorf("missing n.p90 in %v", snap.Values)
	}
}

func TestSetComposition(t *testing.T) {
	var v float64 = 1
	series := NewSeries("x", 0, 1, 8, func() float64 { return v })
	watch := NewPopulationWatch("big", 3, false)
	set := NewSet(series, watch, nil)
	if set.Empty() {
		t.Fatal("set with observers reads empty")
	}
	v = 2
	set.OnEvent(0.5, 0, 2)
	v = 4
	set.OnEvent(1.5, 1, 4)
	set.Seal(3)
	snap := set.Snapshot()
	if len(snap.Series["x"]) == 0 {
		t.Error("series missing from snapshot")
	}
	if snap.Marks["big"] != 1.5 {
		t.Errorf("mark = %v, want 1.5", snap.Marks["big"])
	}
	if got := snap.MarkKeys(); !reflect.DeepEqual(got, []string{"big"}) {
		t.Errorf("mark keys = %v", got)
	}
	if !(&Set{}).Empty() {
		t.Error("zero set not empty")
	}
}

// TestSojournSlabMatchesMap drives the identical arrival/departure stream
// through Arrive/Depart and Admit/Release trackers and checks every emitted
// statistic agrees: the slab is a tag representation, not a new estimator.
func TestSojournSlabMatchesMap(t *testing.T) {
	r := rng.New(31)
	m := NewSojourn("s")
	slab := NewSojourn("s")
	open := map[uint64]uint64{} // map tag → slab tag
	clock := 0.0
	nextTag := uint64(0)
	for i := 0; i < 5000; i++ {
		clock += r.Exp(1)
		if len(open) == 0 || r.Float64() < 0.55 {
			tag := nextTag
			nextTag++
			m.Arrive(tag, clock)
			open[tag] = slab.Admit(clock)
		} else {
			// Depart an arbitrary open entity (map iteration order is
			// fine: both trackers see the same one).
			for tag, st := range open {
				m.Depart(tag, clock)
				slab.Release(st, clock)
				delete(open, tag)
				break
			}
		}
	}
	if m.Open() != slab.Open() || m.Arrivals() != slab.Arrivals() {
		t.Fatalf("counts diverge: open %d/%d arrivals %d/%d",
			m.Open(), slab.Open(), m.Arrivals(), slab.Arrivals())
	}
	var a, b Snapshot
	m.Seal(clock)
	slab.Seal(clock)
	m.EmitTo(&a)
	slab.EmitTo(&b)
	for k, v := range a.Values {
		if b.Values[k] != v {
			t.Errorf("%s: map %v slab %v", k, v, b.Values[k])
		}
	}
}

func TestSojournSlabStaleTag(t *testing.T) {
	s := NewSojourn("s")
	tag := s.Admit(0)
	s.Release(tag, 1)
	for _, f := range []func(){
		func() { s.Release(tag, 2) },             // doubled release
		func() { s.Release(uint64(99), 2) },      // never-issued slot
		func() { s.Admit(3); s.Release(tag, 4) }, // slot reused, old generation
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("stale slab tag did not panic")
				}
			}()
			f()
		}()
	}
}

// TestSojournSlabAllocFree pins the point of the slab mode: once the slot
// array has grown to the peak population, Admit/Release never allocate.
func TestSojournSlabAllocFree(t *testing.T) {
	s := NewSojourn("s")
	tags := make([]uint64, 0, 64)
	// Warm up: grow the slab and the free list to their working sizes.
	for i := 0; i < 64; i++ {
		tags = append(tags, s.Admit(float64(i)))
	}
	for _, tag := range tags {
		s.Release(tag, 100)
	}
	tags = tags[:0]
	clock := 200.0
	if n := testing.AllocsPerRun(500, func() {
		for i := 0; i < 32; i++ {
			clock++
			tags = append(tags, s.Admit(clock))
		}
		for _, tag := range tags {
			clock++
			s.Release(tag, clock)
		}
		tags = tags[:0]
	}); n != 0 {
		t.Errorf("slab Admit/Release allocate %v/op, want 0", n)
	}
}
