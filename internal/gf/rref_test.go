package gf

// The general Gaussian elimination below is the test-only reference for the
// production code's one-row extension (extend): the RREF of a row space is
// unique, so both must produce the same basis row for row.

import (
	"bytes"
	"testing"

	"repro/internal/rng"
)

// AddVec returns u + v over f.
func (f *Field) AddVec(u, v Vec) (Vec, error) {
	if len(u) != len(v) {
		return nil, ErrDimMismatch
	}
	out := make(Vec, len(u))
	for i := range u {
		out[i] = f.Add(u[i], v[i])
	}
	return out, nil
}

// ScaleVec returns c·v over f.
func (f *Field) ScaleVec(c int, v Vec) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = f.Mul(c, v[i])
	}
	return out
}

// AddScaled returns u + c·v over f, the row-operation primitive.
func (f *Field) AddScaled(u Vec, c int, v Vec) (Vec, error) {
	if len(u) != len(v) {
		return nil, ErrDimMismatch
	}
	out := make(Vec, len(u))
	for i := range u {
		out[i] = f.Add(u[i], f.Mul(c, v[i]))
	}
	return out, nil
}

// RREF reduces the given rows in place to reduced row echelon form over f
// and returns the rank. Zero rows sink to the bottom. Rows must share a
// common length; the slice header contents are reordered and rewritten.
func (f *Field) RREF(rows []Vec) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	width := len(rows[0])
	for _, r := range rows {
		if len(r) != width {
			return 0, ErrDimMismatch
		}
	}
	rank := 0
	for col := 0; col < width && rank < len(rows); col++ {
		// Find a pivot in this column at or below row `rank`.
		pivot := -1
		for r := rank; r < len(rows); r++ {
			if rows[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[rank], rows[pivot] = rows[pivot], rows[rank]
		// Normalize the pivot row.
		inv, err := f.Inv(rows[rank][col])
		if err != nil {
			return 0, err // unreachable: pivot is nonzero
		}
		rows[rank] = f.ScaleVec(inv, rows[rank])
		// Eliminate the column from every other row.
		for r := range rows {
			if r == rank || rows[r][col] == 0 {
				continue
			}
			c := f.Neg(rows[r][col])
			rows[r], err = f.AddScaled(rows[r], c, rows[rank])
			if err != nil {
				return 0, err
			}
		}
		rank++
	}
	return rank, nil
}

// TestExtendMatchesRREF pins the canonical form of the extension path: for
// random subspaces and vectors over several fields, Add, Extension.Extend
// and its Subspace all agree with the reference RREF of the basis rows plus
// the new vector, and the key Extend returns is the one AppendKey writes.
func TestExtendMatchesRREF(t *testing.T) {
	r := rng.New(2024)
	for _, q := range []int{2, 3, 4, 5, 8, 16} {
		f := MustNew(q)
		for _, k := range []int{1, 3, 5} {
			ext := NewExtension(f, k)
			scratch := make(Vec, k)
			for trial := 0; trial < 200; trial++ {
				s := randomSubspace(t, f, k, r)
				v := make(Vec, k)
				for i := range v {
					v[i] = r.Intn(q)
				}
				rows := make([]Vec, 0, s.Dim()+1)
				for _, row := range s.basis {
					rows = append(rows, row.Clone())
				}
				rows = append(rows, v.Clone())
				rank, err := f.RREF(rows)
				if err != nil {
					t.Fatal(err)
				}
				rows = rows[:rank]
				want, err := SpanOf(f, k, rows...)
				if err != nil {
					t.Fatal(err)
				}
				if want.Dim() != rank {
					t.Fatalf("SpanOf basis %v is not the reference RREF %v", want.basis, rows)
				}
				for i := range rows {
					if !equalVec(want.basis[i], rows[i]) {
						t.Fatalf("SpanOf basis %v is not the reference RREF %v", want.basis, rows)
					}
				}
				added, err := s.Add(v)
				if err != nil {
					t.Fatal(err)
				}
				if added.Key() != want.Key() {
					t.Fatalf("q=%d k=%d: Add key %x, reference %x", q, k, added.Key(), want.Key())
				}
				in, err := s.ContainsBuf(v, scratch)
				if err != nil {
					t.Fatal(err)
				}
				if in {
					continue
				}
				key := ext.Extend(s, scratch)
				if !bytes.Equal(key, []byte(want.Key())) {
					t.Fatalf("q=%d k=%d: Extend key %x, reference %x", q, k, key, want.Key())
				}
				got := ext.Subspace()
				if got.Key() != want.Key() || got.Dim() != want.Dim() || ext.IsFull() != want.IsFull() {
					t.Fatalf("q=%d k=%d: Extension.Subspace %v, reference %v", q, k, got.basis, want.basis)
				}
			}
		}
	}
}

func equalVec(a, b Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExtendAllocFree gates the extension at zero allocations: a hot path
// extends and looks the key up in a map without building a Subspace.
func TestExtendAllocFree(t *testing.T) {
	f := MustNew(4)
	s, err := SpanOf(f, 4, Vec{1, 2, 0, 3}, Vec{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	ext := NewExtension(f, 4)
	scratch := make(Vec, 4)
	v := Vec{0, 1, 2, 3}
	ids := map[string]int{}
	if n := testing.AllocsPerRun(200, func() {
		if in, _ := s.ContainsBuf(v, scratch); in {
			t.Fatal("fixture vector must be innovative")
		}
		_ = ids[string(ext.Extend(s, scratch))]
	}); n != 0 {
		t.Errorf("Extend and key lookup allocate %v/op, want 0", n)
	}
}
