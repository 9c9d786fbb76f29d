package gf

// Field and subspace micro-benchmarks, and the subspace-keying ablation of
// DESIGN.md §6 (canonical RREF key vs pairwise subset tests).

import (
	"testing"

	"repro/internal/rng"
)

// BenchmarkGFMul measures field multiplication (table lookups).
func BenchmarkGFMul(b *testing.B) {
	f := MustNew(64)
	b.ReportAllocs()
	b.ResetTimer()
	acc := 1
	for i := 0; i < b.N; i++ {
		acc = f.Mul(acc, 37)
		if acc == 0 {
			acc = 1
		}
	}
	_ = acc
}

// BenchmarkSubspaceAdd measures subspace extension with RREF.
func BenchmarkSubspaceAdd(b *testing.B) {
	f := MustNew(8)
	r := rng.New(1)
	const k = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := ZeroSubspace(f, k)
		for j := 0; j < k; j++ {
			v := make(Vec, k)
			for t := range v {
				v[t] = r.Intn(8)
			}
			var err error
			s, err = s.Add(v)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationSubspaceKeyCanonical measures map keying through the
// canonical byte key, as the coded simulator interns groups: the key is
// appended to a reused buffer and looked up without allocating, and only a
// new key is stored as a string.
func BenchmarkAblationSubspaceKeyCanonical(b *testing.B) {
	f := MustNew(4)
	r := rng.New(3)
	subs := randomSubspaces(b, f, 5, 200, r)
	var key []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := make(map[string]int)
		counts := make([]int, 0, 16)
		for _, s := range subs {
			key = s.AppendKey(key[:0])
			if id, ok := ids[string(key)]; ok {
				counts[id]++
			} else {
				ids[string(key)] = len(counts)
				counts = append(counts, 1)
			}
		}
	}
}

// BenchmarkAblationSubspaceKeyStructural measures the alternative keying by
// pairwise subset tests (what one must do without a canonical form).
func BenchmarkAblationSubspaceKeyStructural(b *testing.B) {
	f := MustNew(4)
	r := rng.New(3)
	subs := randomSubspaces(b, f, 5, 200, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var reps []*Subspace
		counts := make([]int, 0, 16)
		for _, s := range subs {
			found := -1
			for j, rep := range reps {
				a, err := s.SubsetOf(rep)
				if err != nil {
					b.Fatal(err)
				}
				c, err := rep.SubsetOf(s)
				if err != nil {
					b.Fatal(err)
				}
				if a && c {
					found = j
					break
				}
			}
			if found >= 0 {
				counts[found]++
			} else {
				reps = append(reps, s)
				counts = append(counts, 1)
			}
		}
	}
}

func randomSubspaces(b *testing.B, f *Field, k, n int, r *rng.RNG) []*Subspace {
	b.Helper()
	out := make([]*Subspace, 0, n)
	for i := 0; i < n; i++ {
		s := ZeroSubspace(f, k)
		for j := 0; j < r.Intn(3); j++ {
			v := make(Vec, k)
			for t := range v {
				v[t] = r.Intn(f.Order())
			}
			var err error
			s, err = s.Add(v)
			if err != nil {
				b.Fatal(err)
			}
		}
		out = append(out, s)
	}
	return out
}
