package gf

import (
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
)

func TestRREFKnown(t *testing.T) {
	f := MustNew(2)
	rows := []Vec{
		{1, 1, 0},
		{0, 1, 1},
		{1, 0, 1}, // sum of the first two: dependent
	}
	rank, err := f.RREF(rows)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 2 {
		t.Fatalf("rank = %d, want 2", rank)
	}
	want := []Vec{{1, 0, 1}, {0, 1, 1}}
	for i := range want {
		for j := range want[i] {
			if rows[i][j] != want[i][j] {
				t.Fatalf("RREF rows = %v, want %v", rows[:rank], want)
			}
		}
	}
}

func TestRREFDimMismatch(t *testing.T) {
	f := MustNew(2)
	if _, err := f.RREF([]Vec{{1, 0}, {1}}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("err = %v", err)
	}
}

func TestRREFEmpty(t *testing.T) {
	f := MustNew(3)
	rank, err := f.RREF(nil)
	if err != nil || rank != 0 {
		t.Errorf("rank=%d err=%v", rank, err)
	}
}

func TestVecOps(t *testing.T) {
	f := MustNew(5)
	u, v := Vec{1, 2, 3}, Vec{4, 4, 4}
	sum, err := f.AddVec(u, v)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{0, 1, 2} {
		if sum[i] != want {
			t.Fatalf("AddVec = %v", sum)
		}
	}
	sc := f.ScaleVec(2, u)
	for i, want := range []int{2, 4, 1} {
		if sc[i] != want {
			t.Fatalf("ScaleVec = %v", sc)
		}
	}
	if _, err := f.AddVec(u, Vec{1}); !errors.Is(err, ErrDimMismatch) {
		t.Error("AddVec mismatch must error")
	}
	if !(Vec{0, 0}).IsZero() || (Vec{0, 1}).IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestSubspaceBasics(t *testing.T) {
	f := MustNew(2)
	s := ZeroSubspace(f, 3)
	if s.Dim() != 0 || s.Ambient() != 3 || s.IsFull() {
		t.Fatal("zero subspace malformed")
	}
	s, err := s.Add(Vec{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 1 {
		t.Fatalf("dim = %d", s.Dim())
	}
	// Adding a dependent vector must not change the subspace.
	s2, err := s.Add(Vec{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Key() != s.Key() {
		t.Error("adding spanned vector changed key")
	}
	in, err := s.Contains(Vec{1, 0, 1})
	if err != nil || !in {
		t.Error("Contains own generator failed")
	}
	in, err = s.Contains(Vec{1, 1, 1})
	if err != nil || in {
		t.Error("Contains of outside vector wrongly true")
	}
}

func TestSubspaceCanonicalKey(t *testing.T) {
	f := MustNew(3)
	// Same subspace built from different generating sets must share a key.
	a, err := SpanOf(f, 3, Vec{1, 2, 0}, Vec{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpanOf(f, 3, Vec{2, 1, 0}, Vec{1, 2, 2}, Vec{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	if a.Dim() != 2 {
		t.Errorf("dim = %d", a.Dim())
	}
}

func TestFullSubspace(t *testing.T) {
	f := MustNew(4)
	full := FullSubspace(f, 3)
	if !full.IsFull() || full.Dim() != 3 {
		t.Fatal("full subspace malformed")
	}
	in, err := full.Contains(Vec{3, 2, 1})
	if err != nil || !in {
		t.Error("full subspace must contain everything")
	}
}

func TestSubsetSumIntersection(t *testing.T) {
	f := MustNew(2)
	x, _ := SpanOf(f, 3, Vec{1, 0, 0})
	y, _ := SpanOf(f, 3, Vec{0, 1, 0})
	xy, _ := SpanOf(f, 3, Vec{1, 0, 0}, Vec{0, 1, 0})

	ok, err := x.SubsetOf(xy)
	if err != nil || !ok {
		t.Error("x ⊆ x+y expected")
	}
	ok, err = xy.SubsetOf(x)
	if err != nil || ok {
		t.Error("x+y ⊄ x expected")
	}
	sum, err := x.Sum(y)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Key() != xy.Key() {
		t.Error("Sum disagrees with SpanOf")
	}
}

func TestRandomVectorStaysInSubspace(t *testing.T) {
	f := MustNew(8)
	s, err := SpanOf(f, 4, Vec{1, 2, 3, 0}, Vec{0, 1, 1, 7})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(101)
	sawNonzero := false
	for i := 0; i < 200; i++ {
		v := s.RandomVector(r)
		in, err := s.Contains(v)
		if err != nil || !in {
			t.Fatalf("random vector %v escaped subspace", v)
		}
		if !v.IsZero() {
			sawNonzero = true
		}
	}
	if !sawNonzero {
		t.Error("all random vectors were zero")
	}
}

func TestRandomVectorUniform(t *testing.T) {
	// Over a 1-dimensional subspace of F_2^2 the random vector is 0 or the
	// generator with probability 1/2 each.
	f := MustNew(2)
	s, _ := SpanOf(f, 2, Vec{1, 1})
	r := rng.New(55)
	zero := 0
	const draws = 10000
	for i := 0; i < draws; i++ {
		if s.RandomVector(r).IsZero() {
			zero++
		}
	}
	if frac := float64(zero) / draws; math.Abs(frac-0.5) > 0.03 {
		t.Errorf("zero fraction = %v, want 0.5", frac)
	}
}

func randomSubspace(t *testing.T, f *Field, k int, r *rng.RNG) *Subspace {
	t.Helper()
	s := ZeroSubspace(f, k)
	gens := r.Intn(k + 1)
	for i := 0; i < gens; i++ {
		v := make(Vec, k)
		for j := range v {
			v[j] = r.Intn(f.Order())
		}
		var err error
		s, err = s.Add(v)
		if err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestHyperplanesCount(t *testing.T) {
	tests := []struct {
		q, k, want int
	}{
		{2, 2, 3},  // (4-1)/(2-1)
		{2, 3, 7},  // (8-1)/1
		{3, 2, 4},  // (9-1)/2
		{3, 3, 13}, // (27-1)/2
		{4, 2, 5},  // (16-1)/3
	}
	for _, tt := range tests {
		f := MustNew(tt.q)
		hs, err := Hyperplanes(f, tt.k)
		if err != nil {
			t.Fatal(err)
		}
		if len(hs) != tt.want {
			t.Errorf("Hyperplanes(q=%d,k=%d) count = %d, want %d",
				tt.q, tt.k, len(hs), tt.want)
		}
		seen := make(map[string]bool)
		for _, h := range hs {
			if h.Dim() != tt.k-1 {
				t.Errorf("hyperplane dim = %d, want %d", h.Dim(), tt.k-1)
			}
			if seen[h.Key()] {
				t.Errorf("duplicate hyperplane %s", h.Key())
			}
			seen[h.Key()] = true
		}
	}
}

func TestHyperplanesInvalidK(t *testing.T) {
	if _, err := Hyperplanes(MustNew(2), 0); err == nil {
		t.Error("k=0 must error")
	}
}

func TestContainsBufMatchesContains(t *testing.T) {
	f := MustNew(4)
	s, err := SpanOf(f, 5, Vec{1, 2, 3, 0, 1}, Vec{0, 1, 1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	scratch := make(Vec, 5)
	r := rng.New(404)
	for i := 0; i < 500; i++ {
		v := make(Vec, 5)
		if i%3 == 0 {
			v = s.RandomVector(r) // guaranteed members mixed in
		} else {
			for j := range v {
				v[j] = r.Intn(f.Order())
			}
		}
		want, err := s.Contains(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.ContainsBuf(v, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("ContainsBuf(%v) = %v, Contains = %v", v, got, want)
		}
	}
}

func TestContainsBufDimMismatch(t *testing.T) {
	f := MustNew(2)
	s, _ := SpanOf(f, 3, Vec{1, 0, 1})
	if _, err := s.ContainsBuf(Vec{1, 0}, make(Vec, 3)); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("short vector: err = %v, want ErrDimMismatch", err)
	}
	if _, err := s.ContainsBuf(Vec{1, 0, 1}, make(Vec, 2)); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("short scratch: err = %v, want ErrDimMismatch", err)
	}
}

func TestRandomVectorIntoMatchesRandomVector(t *testing.T) {
	f := MustNew(8)
	s, err := SpanOf(f, 4, Vec{1, 2, 3, 0}, Vec{0, 1, 1, 7})
	if err != nil {
		t.Fatal(err)
	}
	// Two RNGs with the same seed must stay in lockstep: RandomVectorInto
	// consumes exactly the variates RandomVector does.
	ra, rb := rng.New(77), rng.New(77)
	dst := make(Vec, 4)
	for i := 0; i < 300; i++ {
		want := s.RandomVector(ra)
		got := s.RandomVectorInto(rb, dst)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("draw %d: Into = %v, RandomVector = %v", i, got, want)
			}
		}
	}
	if ra.Uint64() != rb.Uint64() {
		t.Error("RNG streams desynchronized")
	}
}

func TestRandomVectorIntoBadLen(t *testing.T) {
	f := MustNew(2)
	s, _ := SpanOf(f, 3, Vec{1, 0, 1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong dst length")
		}
	}()
	s.RandomVectorInto(rng.New(1), make(Vec, 2))
}

func TestScratchPrimitivesAllocFree(t *testing.T) {
	f := MustNew(16)
	s, err := SpanOf(f, 6, Vec{1, 2, 3, 4, 5, 6}, Vec{0, 1, 7, 7, 1, 0}, Vec{0, 0, 1, 9, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	v := s.RandomVector(rng.New(9))
	scratch := make(Vec, 6)
	r := rng.New(10)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := s.ContainsBuf(v, scratch); err != nil {
			t.Fatal(err)
		}
		s.RandomVectorInto(r, scratch)
	}); n != 0 {
		t.Errorf("ContainsBuf+RandomVectorInto allocate %v/op, want 0", n)
	}
}
