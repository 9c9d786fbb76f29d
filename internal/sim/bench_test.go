package sim

// The state-representation ablation of DESIGN.md §6 (type counts vs one
// record per peer) and the many-types throughput benchmark.

import (
	"testing"

	"repro/internal/model"
	"repro/internal/pieceset"
	"repro/internal/rng"
)

// oneClubParams is the K = 4, γ = 2, λ∅ = 1 chain both ablation arms run.
func oneClubParams() model.Params {
	return model.Params{
		K: 4, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 1},
	}
}

// perPeerSwarm is a deliberately naive reference simulator that stores one
// record per peer instead of type counts; the ablation quantifies what the
// type-count representation buys.
type perPeerSwarm struct {
	p     model.Params
	r     *rng.RNG
	peers []pieceset.Set
	now   float64
}

func (s *perPeerSwarm) step() {
	full := pieceset.Full(s.p.K)
	n := len(s.peers)
	lambda := s.p.LambdaTotal()
	seed := 0.0
	if n > 0 {
		seed = s.p.Us
	}
	peer := s.p.Mu * float64(n)
	dep := 0.0
	seeds := 0
	for _, c := range s.peers {
		if c == full {
			seeds++
		}
	}
	dep = s.p.Gamma * float64(seeds)
	total := lambda + seed + peer + dep
	s.now += s.r.Exp(total)
	u := s.r.Float64() * total
	switch {
	case u < lambda:
		s.peers = append(s.peers, pieceset.Empty)
	case u < lambda+seed:
		i := s.r.Intn(n)
		useful := s.peers[i].Complement(s.p.K)
		if !useful.IsEmpty() {
			s.peers[i] = s.peers[i].With(useful.NthPiece(s.r.Intn(useful.Size())))
		}
	case u < lambda+seed+peer:
		up, tg := s.r.Intn(n), s.r.Intn(n)
		useful := s.peers[up].Minus(s.peers[tg])
		if !useful.IsEmpty() {
			s.peers[tg] = s.peers[tg].With(useful.NthPiece(s.r.Intn(useful.Size())))
		}
	default:
		for i, c := range s.peers {
			if c == full {
				s.peers[i] = s.peers[len(s.peers)-1]
				s.peers = s.peers[:len(s.peers)-1]
				break
			}
		}
	}
}

// BenchmarkAblationStateReprTypeCounts is the production representation.
func BenchmarkAblationStateReprTypeCounts(b *testing.B) {
	p := oneClubParams()
	s, err := New(p, WithSeed(1), WithInitialPeers(
		map[pieceset.Set]int{pieceset.Full(4).Without(1): 2000}))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStateReprPerPeer is the per-peer reference at the same
// population.
func BenchmarkAblationStateReprPerPeer(b *testing.B) {
	p := oneClubParams()
	s := &perPeerSwarm{p: p, r: rng.New(1)}
	club := pieceset.Full(4).Without(1)
	for i := 0; i < 2000; i++ {
		s.peers = append(s.peers, club)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step()
	}
}

// BenchmarkSwarmStepWideOneClub measures end-to-end event throughput of
// the type-count simulator in a many-types regime (K=16 arrivals spread
// across types), where the old linear scan dominated the event cost.
func BenchmarkSwarmStepWideOneClub(b *testing.B) {
	p := model.Params{
		K: 16, Us: 1, Mu: 1, Gamma: 2,
		Lambda: map[pieceset.Set]float64{pieceset.Empty: 4},
	}
	initial := map[pieceset.Set]int{}
	r := rng.New(5)
	full := pieceset.Full(16)
	for i := 0; i < 3000; i++ {
		// A random non-full type per peer: a wide occupied-type front.
		c := pieceset.Set(r.Intn(1 << 16))
		if c == full {
			c = c.Without(1)
		}
		initial[c]++
	}
	s, err := New(p, WithSeed(1), WithInitialPeers(initial))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
