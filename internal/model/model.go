// Package model defines the stochastic P2P model of Zhu & Hajek exactly as
// in Section III of the paper: the parameter vector (K, U_s, µ, γ, {λ_C}),
// the type-count state space, the aggregate transition rates Γ_{C,C'} of
// equation (1), and full generator-row enumeration. Both the event-driven
// simulator and the exact truncated solver are built on (and cross-checked
// against) this package.
package model

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/pieceset"
)

// Errors reported by parameter validation.
var (
	ErrBadK          = errors.New("model: K must be in 1..MaxK")
	ErrBadRate       = errors.New("model: rates must be non-negative and finite")
	ErrBadMu         = errors.New("model: µ must be positive and finite")
	ErrBadGamma      = errors.New("model: γ must be positive (possibly +Inf)")
	ErrNoArrivals    = errors.New("model: total arrival rate must be positive")
	ErrSeedArrival   = errors.New("model: λ_F must be 0 when γ = ∞")
	ErrLambdaRange   = errors.New("model: λ_C type outside subsets of {1..K}")
	ErrStateMismatch = errors.New("model: state length does not match 2^K")
	ErrBadInitial    = errors.New("model: invalid initial peers")
)

// Params holds the model parameters. Lambda maps a piece set C to the
// Poisson arrival rate λ_C of type-C peers; absent keys mean zero. Gamma may
// be math.Inf(1), the paper's γ = ∞ ("peers depart immediately on
// completion").
type Params struct {
	K      int
	Us     float64
	Mu     float64
	Gamma  float64
	Lambda map[pieceset.Set]float64
}

// GammaInf reports whether the model is in the γ = ∞ regime.
func (p Params) GammaInf() bool { return math.IsInf(p.Gamma, 1) }

// Validate checks the constraints of Section III. It returns the first
// violated constraint.
func (p Params) Validate() error {
	if p.K < 1 || p.K > pieceset.MaxK {
		return fmt.Errorf("%w: got %d", ErrBadK, p.K)
	}
	if p.Us < 0 || math.IsNaN(p.Us) || math.IsInf(p.Us, 0) {
		return fmt.Errorf("%w: U_s = %v", ErrBadRate, p.Us)
	}
	if !(p.Mu > 0) || math.IsInf(p.Mu, 0) {
		return fmt.Errorf("%w: µ = %v", ErrBadMu, p.Mu)
	}
	if !(p.Gamma > 0) {
		return fmt.Errorf("%w: γ = %v", ErrBadGamma, p.Gamma)
	}
	full := pieceset.Full(p.K)
	var total float64
	for c, l := range p.Lambda {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("%w: λ_%v = %v", ErrBadRate, c, l)
		}
		if !c.SubsetOf(full) {
			return fmt.Errorf("%w: %v with K = %d", ErrLambdaRange, c, p.K)
		}
		if c == full && l > 0 && p.GammaInf() {
			return ErrSeedArrival
		}
		total += l
	}
	if total <= 0 {
		return ErrNoArrivals
	}
	return nil
}

// AddInitial validates an initial population of count peers per type and
// hands each occupied type to add in ascending type order, so that map
// iteration order never reaches a simulator's state. Types outside
// {1..K}, negative counts, and peer seeds when γ = ∞ are rejected with
// ErrBadInitial; a zero count of peer seeds is accepted and skipped.
func (p Params) AddInitial(initial map[pieceset.Set]int, add func(c pieceset.Set, count int)) error {
	full := pieceset.Full(p.K)
	types := make([]pieceset.Set, 0, len(initial))
	for c := range initial {
		types = append(types, c)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, c := range types {
		count := initial[c]
		if count < 0 || !c.SubsetOf(full) {
			return fmt.Errorf("%w: %v x %d", ErrBadInitial, c, count)
		}
		if count == 0 {
			continue
		}
		if c == full && p.GammaInf() {
			return fmt.Errorf("%w: %d peer seeds impossible when γ = ∞", ErrBadInitial, count)
		}
		add(c, count)
	}
	return nil
}

// LambdaTotal returns λ_total = Σ_C λ_C, accumulated in ascending type
// order: float sums depend on association order, so summing in map
// iteration order would make the last ulp of λ_total — and every value
// derived from it — vary run to run, breaking the byte-identity of
// emitted JSONL and tables. Event loops cache the result (it allocates
// for the sort) rather than re-summing per event.
func (p Params) LambdaTotal() float64 {
	var total float64
	for _, c := range p.ArrivalTypes() {
		total += p.Lambda[c]
	}
	return total
}

// LambdaOf returns λ_C (0 for absent types).
func (p Params) LambdaOf(c pieceset.Set) float64 { return p.Lambda[c] }

// CanPieceEnter reports whether new copies of piece k can enter the system:
// U_s > 0, or λ_C > 0 for some C containing k (the condition in the γ ≤ µ
// branch of Theorem 1).
func (p Params) CanPieceEnter(k int) bool {
	if p.Us > 0 {
		return true
	}
	for c, l := range p.Lambda {
		if l > 0 && c.Has(k) {
			return true
		}
	}
	return false
}

// AllPiecesCanEnter reports whether CanPieceEnter holds for every piece.
func (p Params) AllPiecesCanEnter() bool {
	for k := 1; k <= p.K; k++ {
		if !p.CanPieceEnter(k) {
			return false
		}
	}
	return true
}

// ArrivalTypes returns the types with positive arrival rate, sorted.
func (p Params) ArrivalTypes() []pieceset.Set {
	out := make([]pieceset.Set, 0, len(p.Lambda))
	for c, l := range p.Lambda {
		if l > 0 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the parameters compactly for logs and tables.
func (p Params) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "K=%d Us=%g µ=%g ", p.K, p.Us, p.Mu)
	if p.GammaInf() {
		b.WriteString("γ=∞")
	} else {
		fmt.Fprintf(&b, "γ=%g", p.Gamma)
	}
	for _, c := range p.ArrivalTypes() {
		fmt.Fprintf(&b, " λ%v=%g", c, p.Lambda[c])
	}
	return b.String()
}

// State is the type-count vector x = (x_C : C ⊆ {1..K}) indexed by the
// bitmask value of C; len(State) must be 2^K. In the γ = ∞ regime the full
// type's entry stays zero by construction. State is the dense representation
// used by the exact solver and the Lyapunov evaluator; the simulator keeps
// sparse counts and converts at the boundary.
type State []int

// NewState returns an all-zero state for a K-piece model.
func NewState(k int) State { return make(State, 1<<uint(k)) }

// Clone returns a copy of the state.
func (s State) Clone() State {
	out := make(State, len(s))
	copy(out, s)
	return out
}

// N returns the total number of peers in the system.
func (s State) N() int {
	n := 0
	for _, x := range s {
		n += x
	}
	return n
}

// Count returns x_C.
func (s State) Count(c pieceset.Set) int { return s[int(c)] }

// Key returns a canonical string encoding for use as a map key in solvers.
func (s State) Key() string {
	var b strings.Builder
	for i, x := range s {
		if x == 0 {
			continue
		}
		fmt.Fprintf(&b, "%d:%d;", i, x)
	}
	return b.String()
}

// checkState validates state dimensions against K.
func (p Params) checkState(x State) error {
	if len(x) != 1<<uint(p.K) {
		return fmt.Errorf("%w: len %d for K=%d", ErrStateMismatch, len(x), p.K)
	}
	return nil
}

// UploadRate returns Γ_{C, C∪{i}} of equation (1): the aggregate rate at
// which type-C peers receive piece i, for i ∉ C. It returns 0 when n = 0,
// x_C = 0, or i ∈ C.
func (p Params) UploadRate(x State, c pieceset.Set, i int) float64 {
	if err := p.checkState(x); err != nil {
		return 0
	}
	if c.Has(i) || i < 1 || i > p.K {
		return 0
	}
	xc := x.Count(c)
	if xc == 0 {
		return 0
	}
	n := x.N()
	if n == 0 {
		return 0
	}
	// Seed term: the seed picks the target uniformly (prob x_C/n) and then
	// a needed piece uniformly among the K−|C| missing ones.
	rate := p.Us / float64(p.K-c.Size())
	// Peer term: every type-S peer holding i contacts the target with
	// probability x_C/n per tick and picks i with probability 1/|S−C|.
	for sIdx, xs := range x {
		if xs == 0 {
			continue
		}
		s := pieceset.Set(sIdx)
		if !s.Has(i) {
			continue
		}
		diff := s.Minus(c).Size() // ≥ 1 because i ∈ S − C
		rate += p.Mu * float64(xs) / float64(diff)
	}
	return float64(xc) / float64(n) * rate
}

// Transition is one off-diagonal generator entry: the chain jumps from the
// current state to Next at rate Rate.
type Transition struct {
	Rate float64
	Next State
	// Kind documents the physical event for traces and tests.
	Kind TransitionKind
	// Type and Piece identify the affected peer type and (for uploads) the
	// transferred piece; they are informational.
	Type  pieceset.Set
	Piece int
}

// TransitionKind labels the physical event behind a transition.
type TransitionKind int

// Transition kinds.
const (
	KindArrival TransitionKind = iota + 1
	KindUpload
	KindSeedDeparture   // peer seed departs (γ < ∞)
	KindFinishDeparture // peer completes and departs instantly (γ = ∞)
)

// String names the transition kind.
func (k TransitionKind) String() string {
	switch k {
	case KindArrival:
		return "arrival"
	case KindUpload:
		return "upload"
	case KindSeedDeparture:
		return "seed-departure"
	case KindFinishDeparture:
		return "finish-departure"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Transitions enumerates every positive-rate transition out of state x,
// exactly the positive entries of the generator matrix Q defined in
// Section III. The caller owns the returned states.
func (p Params) Transitions(x State) ([]Transition, error) {
	if err := p.checkState(x); err != nil {
		return nil, err
	}
	full := pieceset.Full(p.K)
	var out []Transition

	// Exogenous arrivals: x → x + e_C at rate λ_C, in ascending type order
	// so downstream float folds (the exact solver's row sums) are
	// independent of map iteration order.
	for _, c := range p.ArrivalTypes() {
		next := x.Clone()
		next[int(c)]++
		out = append(out, Transition{Rate: p.Lambda[c], Next: next, Kind: KindArrival, Type: c})
	}

	// Peer-seed departures: x → x − e_F at rate γ·x_F (γ < ∞ only).
	if !p.GammaInf() {
		if xf := x.Count(full); xf > 0 {
			next := x.Clone()
			next[int(full)]--
			out = append(out, Transition{
				Rate: p.Gamma * float64(xf), Next: next,
				Kind: KindSeedDeparture, Type: full,
			})
		}
	}

	// Uploads: x → x − e_C + e_{C∪{i}} at rate Γ_{C,C∪{i}}; when γ = ∞ and
	// C∪{i} = F the completing peer departs instead.
	for cIdx, xc := range x {
		if xc == 0 {
			continue
		}
		c := pieceset.Set(cIdx)
		if c == full {
			continue
		}
		c.Complement(p.K).ForEach(func(i int) {
			rate := p.UploadRate(x, c, i)
			if rate <= 0 {
				return
			}
			target := c.With(i)
			next := x.Clone()
			next[cIdx]--
			kind := KindUpload
			if target == full && p.GammaInf() {
				kind = KindFinishDeparture
			} else {
				next[int(target)]++
			}
			out = append(out, Transition{
				Rate: rate, Next: next, Kind: kind, Type: c, Piece: i,
			})
		})
	}
	return out, nil
}

// TotalRate returns the total outflow rate Σ_{x'≠x} q(x, x') at state x.
func (p Params) TotalRate(x State) (float64, error) {
	ts, err := p.Transitions(x)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, t := range ts {
		sum += t.Rate
	}
	return sum, nil
}

// Drift computes Q(F)(x) = Σ_{x'} q(x,x')·[F(x') − F(x)] for an arbitrary
// scalar function of the state (equation (10)); the Lyapunov verifier is
// built on this.
func (p Params) Drift(x State, f func(State) float64) (float64, error) {
	ts, err := p.Transitions(x)
	if err != nil {
		return 0, err
	}
	fx := f(x)
	var drift float64
	for _, t := range ts {
		drift += t.Rate * (f(t.Next) - fx)
	}
	return drift, nil
}
