package gf

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrDimMismatch indicates vectors of different lengths in one operation.
var ErrDimMismatch = errors.New("gf: dimension mismatch")

// Vec is a vector over a Field, one int element per coordinate.
type Vec []int

// IsZero reports whether every coordinate is zero.
func (v Vec) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Subspace is a linear subspace of F_q^K held in canonical form: the
// reduced row echelon (RREF) basis. Two Subspace values over the same field
// and ambient space represent the same subspace if and only if their Keys
// are equal, which is what lets the coded simulator use subspaces as
// peer-type map keys.
type Subspace struct {
	field *Field
	dim   int
	k     int
	basis []Vec // RREF rows, exactly dim of them
}

// ZeroSubspace returns the trivial subspace {0} ⊆ F_q^k.
func ZeroSubspace(f *Field, k int) *Subspace {
	return &Subspace{field: f, k: k}
}

// FullSubspace returns F_q^k itself.
func FullSubspace(f *Field, k int) *Subspace {
	s := ZeroSubspace(f, k)
	for i := 0; i < k; i++ {
		e := make(Vec, k)
		e[i] = 1
		s = s.mustAdd(e)
	}
	return s
}

// SpanOf builds the subspace spanned by the given vectors.
func SpanOf(f *Field, k int, vecs ...Vec) (*Subspace, error) {
	s := ZeroSubspace(f, k)
	for _, v := range vecs {
		if len(v) != k {
			return nil, ErrDimMismatch
		}
		var err error
		s, err = s.Add(v)
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Dim returns the dimension of the subspace.
func (s *Subspace) Dim() int { return s.dim }

// Ambient returns k, the dimension of the ambient space F_q^k.
func (s *Subspace) Ambient() int { return s.k }

// Field returns the underlying field.
func (s *Subspace) Field() *Field { return s.field }

// IsFull reports whether the subspace is all of F_q^k; a peer of full type
// can decode the file.
func (s *Subspace) IsFull() bool { return s.dim == s.k }

// Key returns the canonical key as a string, for map keys: the bytes
// AppendKey writes. Within one ambient space F_q^k, equal subspaces yield
// equal keys and vice versa.
func (s *Subspace) Key() string { return string(s.AppendKey(nil)) }

// AppendKey appends the canonical key to dst and returns the extended
// slice. The key is the RREF basis, row by row, each coordinate as two
// big-endian bytes (q ≤ MaxOrder < 1<<16), so byte order follows
// coordinate order. A caller that reuses dst and looks the key up with
// m[string(key)] resolves a subspace without allocating.
func (s *Subspace) AppendKey(dst []byte) []byte { return appendKey(dst, s.basis) }

func appendKey(dst []byte, rows []Vec) []byte {
	for _, row := range rows {
		for _, x := range row {
			dst = append(dst, byte(x>>8), byte(x))
		}
	}
	return dst
}

// Contains reports whether v ∈ s, by reducing v against the RREF basis.
func (s *Subspace) Contains(v Vec) (bool, error) {
	if len(v) != s.k {
		return false, ErrDimMismatch
	}
	r, err := s.reduce(v)
	if err != nil {
		return false, err
	}
	return r.IsZero(), nil
}

// reduce eliminates v against the basis rows and returns the residual.
func (s *Subspace) reduce(v Vec) (Vec, error) {
	r := v.Clone()
	s.reduceInPlace(r)
	return r, nil
}

// reduceInPlace eliminates r against the basis rows, overwriting r with the
// residual. It performs no allocation: the row operations are applied
// coordinate by coordinate instead of through AddScaled.
func (s *Subspace) reduceInPlace(r Vec) {
	for _, row := range s.basis {
		// Pivot column of an RREF row is its first nonzero entry.
		pc := pivotCol(row)
		if pc < 0 || r[pc] == 0 {
			continue
		}
		c := s.field.Neg(r[pc])
		for i := range r {
			r[i] = s.field.Add(r[i], s.field.Mul(c, row[i]))
		}
	}
}

// ContainsBuf reports whether v ∈ s like Contains, but uses the caller's
// scratch buffer (length k) for the reduction instead of cloning v, so the
// per-event membership tests in the coded simulator stay allocation-free.
// v is not modified; scratch's contents are overwritten.
func (s *Subspace) ContainsBuf(v, scratch Vec) (bool, error) {
	if len(v) != s.k || len(scratch) != s.k {
		return false, ErrDimMismatch
	}
	copy(scratch, v)
	s.reduceInPlace(scratch)
	return scratch.IsZero(), nil
}

// Add returns the subspace s + span{v}. The receiver is not modified; the
// returned subspace shares no mutable state with it.
func (s *Subspace) Add(v Vec) (*Subspace, error) {
	if len(v) != s.k {
		return nil, ErrDimMismatch
	}
	r, err := s.reduce(v)
	if err != nil {
		return nil, err
	}
	if r.IsZero() {
		return s, nil // v already in the span; canonical form unchanged
	}
	rows := newRows(s.dim+1, s.k)
	extend(s.field, s.basis, r, rows)
	return &Subspace{field: s.field, k: s.k, dim: s.dim + 1, basis: rows}, nil
}

// newRows returns n zero rows of length k over one backing array.
func newRows(n, k int) []Vec {
	back := make(Vec, n*k)
	rows := make([]Vec, n)
	for i := range rows {
		rows[i] = back[i*k : (i+1)*k : (i+1)*k]
	}
	return rows
}

// extend writes the RREF basis of span(basis) + span{r} into out, which
// holds len(basis)+1 rows of the ambient length and aliases neither basis
// nor r. r must be nonzero and zero in every pivot column of basis, as
// reducing a vector against the basis leaves it. The RREF of a row space
// is unique, and this builds it directly: r, scaled to a leading 1, slots
// in at the rank of its pivot column, and that column is eliminated from
// the other rows, which keep their own pivots.
func extend(f *Field, basis []Vec, r Vec, out []Vec) {
	pc := pivotCol(r)
	if pc < 0 {
		panic("gf: extending a subspace by a zero residual")
	}
	inv, _ := f.Inv(r[pc]) // r[pc] ≠ 0
	at := 0
	for at < len(basis) && pivotCol(basis[at]) < pc {
		at++
	}
	nr := out[at]
	for i, x := range r {
		nr[i] = f.Mul(inv, x)
	}
	for j, row := range basis {
		o := out[j]
		if j >= at {
			o = out[j+1]
		}
		c := f.Neg(row[pc])
		if c == 0 {
			copy(o, row)
			continue
		}
		for i, x := range row {
			o[i] = f.Add(x, f.Mul(c, nr[i]))
		}
	}
}

// Extension holds in reusable scratch the RREF basis of a subspace
// extended by one innovative vector. A hot path can then resolve the
// extended subspace by its key without allocating, and build a Subspace
// value only for a key it has not seen.
type Extension struct {
	field *Field
	rows  []Vec // k scratch rows; the first dim hold the basis
	dim   int
	key   []byte
}

// NewExtension returns extension scratch for subspaces of F_q^k.
func NewExtension(f *Field, k int) *Extension {
	return &Extension{field: f, rows: newRows(k, k), key: make([]byte, 0, 2*k*k)}
}

// Extend sets e to s + span{r} and returns the canonical key of the sum
// (the bytes Subspace.AppendKey would write), valid until the next Extend.
// s must be a subspace of F_q^k over e's field, and r a nonzero residual of
// s: the scratch vector ContainsBuf leaves behind when it reports false.
// r is not modified.
func (e *Extension) Extend(s *Subspace, r Vec) []byte {
	e.dim = s.dim + 1
	extend(e.field, s.basis, r, e.rows[:e.dim])
	e.key = appendKey(e.key[:0], e.rows[:e.dim])
	return e.key
}

// IsFull reports whether the last extension is all of F_q^k.
func (e *Extension) IsFull() bool { return e.dim == len(e.rows) }

// Subspace returns the last extension as a new Subspace that shares no
// memory with e.
func (e *Extension) Subspace() *Subspace {
	k := len(e.rows)
	rows := newRows(e.dim, k)
	for i := range rows {
		copy(rows[i], e.rows[i])
	}
	return &Subspace{field: e.field, k: k, dim: e.dim, basis: rows}
}

func (s *Subspace) mustAdd(v Vec) *Subspace {
	out, err := s.Add(v)
	if err != nil {
		panic(err)
	}
	return out
}

// SubsetOf reports whether s ⊆ t.
func (s *Subspace) SubsetOf(t *Subspace) (bool, error) {
	if s.k != t.k {
		return false, ErrDimMismatch
	}
	if s.dim > t.dim {
		return false, nil
	}
	for _, row := range s.basis {
		in, err := t.Contains(row)
		if err != nil {
			return false, err
		}
		if !in {
			return false, nil
		}
	}
	return true, nil
}

// Sum returns s + t (the join).
func (s *Subspace) Sum(t *Subspace) (*Subspace, error) {
	if s.k != t.k {
		return nil, ErrDimMismatch
	}
	out := s
	for _, row := range t.basis {
		var err error
		out, err = out.Add(row)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// IntersectionDim returns dim(s ∩ t) via the modular law
// dim(s∩t) = dim s + dim t − dim(s+t).
func (s *Subspace) IntersectionDim(t *Subspace) (int, error) {
	sum, err := s.Sum(t)
	if err != nil {
		return 0, err
	}
	return s.dim + t.dim - sum.Dim(), nil
}

// randSource is the minimal random interface the package needs; the rng
// package satisfies it.
type randSource interface {
	Intn(n int) int
}

// RandomVector returns a uniformly random vector of s: a random linear
// combination of the basis with independent uniform coefficients. This is
// exactly what a coded peer transmits when contacted.
func (s *Subspace) RandomVector(r randSource) Vec {
	return s.RandomVectorInto(r, make(Vec, s.k))
}

// RandomVectorInto is RandomVector writing into the caller's buffer (which
// must have length k), consuming the identical variate sequence — one
// coefficient per basis row — so swapping it in never changes a
// realization. It returns dst for chaining.
func (s *Subspace) RandomVectorInto(r randSource, dst Vec) Vec {
	if len(dst) != s.k {
		panic(ErrDimMismatch)
	}
	for i := range dst {
		dst[i] = 0
	}
	for _, row := range s.basis {
		c := r.Intn(s.field.Order())
		if c == 0 {
			continue
		}
		for i := range dst {
			dst[i] = s.field.Add(dst[i], s.field.Mul(c, row[i]))
		}
	}
	return dst
}

// UsefulProbability returns the probability that a uniformly random vector
// of uploader subspace b is useful to (not already spanned by) receiver
// subspace a: 1 − q^{dim(a∩b) − dim(b)}, equation from Section VIII-B.
func UsefulProbability(a, b *Subspace) (float64, error) {
	if b.Dim() == 0 {
		return 0, nil
	}
	interDim, err := a.IntersectionDim(b)
	if err != nil {
		return 0, err
	}
	q := float64(a.field.Order())
	p := 1.0
	for i := 0; i < b.Dim()-interDim; i++ {
		p /= q
	}
	return 1 - p, nil
}

// pivotCol returns the index of the first nonzero entry of an RREF row, or
// -1 for a zero row.
func pivotCol(row Vec) int {
	for i, x := range row {
		if x != 0 {
			return i
		}
	}
	return -1
}

// Hyperplanes enumerates every (k−1)-dimensional subspace of F_q^k as the
// kernels of nonzero linear functionals, one functional per projective
// point (first nonzero coefficient normalized to 1). The count is
// (q^k − 1)/(q − 1). Keep k and q small: the stability calculator only
// needs this for analytic threshold checks.
func Hyperplanes(f *Field, k int) ([]*Subspace, error) {
	if k < 1 {
		return nil, errors.New("gf: hyperplanes need k >= 1")
	}
	q := f.Order()
	var out []*Subspace
	// Enumerate normalized functionals phi: first nonzero coefficient = 1.
	phi := make(Vec, k)
	var rec func(pos int, leadingSet bool) error
	rec = func(pos int, leadingSet bool) error {
		if pos == k {
			if !leadingSet {
				return nil
			}
			h, err := kernelOf(f, phi)
			if err != nil {
				return err
			}
			out = append(out, h)
			return nil
		}
		if !leadingSet {
			// Either stay zero or set this position to 1 as the lead.
			phi[pos] = 0
			if err := rec(pos+1, false); err != nil {
				return err
			}
			phi[pos] = 1
			if err := rec(pos+1, true); err != nil {
				return err
			}
			phi[pos] = 0
			return nil
		}
		for c := 0; c < q; c++ {
			phi[pos] = c
			if err := rec(pos+1, true); err != nil {
				return err
			}
		}
		phi[pos] = 0
		return nil
	}
	if err := rec(0, false); err != nil {
		return nil, err
	}
	return out, nil
}

// kernelOf builds the kernel of a nonzero functional phi over F_q^k.
func kernelOf(f *Field, phi Vec) (*Subspace, error) {
	k := len(phi)
	lead := pivotCol(phi)
	if lead < 0 {
		return nil, errors.New("gf: zero functional has no hyperplane kernel")
	}
	s := ZeroSubspace(f, k)
	// Basis: for each coordinate j != lead, the vector e_j - phi_j/phi_lead * e_lead.
	invLead, err := f.Inv(phi[lead])
	if err != nil {
		return nil, err
	}
	for j := 0; j < k; j++ {
		if j == lead {
			continue
		}
		v := make(Vec, k)
		v[j] = 1
		v[lead] = f.Neg(f.Mul(phi[j], invLead))
		s, err = s.Add(v)
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// AllSubspaces enumerates every subspace of F_q^k, the full type space V of
// the coded system. The count is the sum of Gaussian binomial coefficients,
// which explodes quickly — callers must keep q and k small (the guard
// rejects anything beyond a few thousand subspaces).
func AllSubspaces(f *Field, k int) ([]*Subspace, error) {
	if k < 0 {
		return nil, errors.New("gf: negative dimension")
	}
	total := SubspaceCount(f.Order(), k)
	const maxEnum = 1 << 14
	if total < 0 || total > maxEnum {
		return nil, fmt.Errorf("gf: %d subspaces exceed the enumeration limit %d", total, maxEnum)
	}
	seen := map[string]*Subspace{}
	zero := ZeroSubspace(f, k)
	seen[zero.Key()] = zero
	frontier := []*Subspace{zero}
	// Breadth-first closure under adding one vector; every subspace is
	// reachable from {0} by adding basis vectors one at a time.
	for len(frontier) > 0 {
		var next []*Subspace
		for _, s := range frontier {
			if s.Dim() == k {
				continue
			}
			v := make(Vec, k)
			var rec func(pos int) error
			rec = func(pos int) error {
				if pos == k {
					ext, err := s.Add(v)
					if err != nil {
						return err
					}
					if _, ok := seen[ext.Key()]; !ok {
						seen[ext.Key()] = ext
						next = append(next, ext)
					}
					return nil
				}
				for c := 0; c < f.Order(); c++ {
					v[pos] = c
					if err := rec(pos + 1); err != nil {
						return err
					}
				}
				v[pos] = 0
				return nil
			}
			if err := rec(0); err != nil {
				return nil, err
			}
		}
		frontier = next
	}
	out := make([]*Subspace, 0, len(seen))
	for _, s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dim() != out[j].Dim() {
			return out[i].Dim() < out[j].Dim()
		}
		return out[i].Key() < out[j].Key()
	})
	return out, nil
}

// GaussianBinomial returns the q-binomial coefficient [k choose d]_q: the
// number of d-dimensional subspaces of F_q^k. It returns -1 on overflow.
func GaussianBinomial(q, k, d int) int {
	if d < 0 || d > k {
		return 0
	}
	// Product formula: Π_{i=0}^{d-1} (q^{k-i} − 1)/(q^{i+1} − 1).
	num, den := 1.0, 1.0
	for i := 0; i < d; i++ {
		num *= math.Pow(float64(q), float64(k-i)) - 1
		den *= math.Pow(float64(q), float64(i+1)) - 1
	}
	v := num / den
	if math.IsNaN(v) || math.IsInf(v, 0) || v > float64(math.MaxInt32) {
		return -1
	}
	return int(math.Round(v))
}

// SubspaceCount returns the total number of subspaces of F_q^k (all
// dimensions), or -1 on overflow.
func SubspaceCount(q, k int) int {
	total := 0
	for d := 0; d <= k; d++ {
		g := GaussianBinomial(q, k, d)
		if g < 0 {
			return -1
		}
		total += g
	}
	return total
}
