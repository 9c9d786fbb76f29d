package dist

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// refP2 is the textbook P² update (Jain & Chlamtac, CACM 1985) written out
// step by step: all five desired positions advance, the cell search loops,
// and the height predictions are separate functions. Non-finite values are
// dropped before the update, the rule P2 follows. P2.Observe must track it
// bit for bit.
type refP2 struct {
	n     int
	q     [5]float64
	pos   [5]float64
	want  [5]float64
	dwant [5]float64
}

func newRefP2(p float64) *refP2 {
	return &refP2{dwant: [5]float64{0, p / 2, p, (1 + p) / 2, 1}}
}

func (e *refP2) Observe(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	if e.n < 5 {
		e.q[e.n] = x
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
			for i := range e.pos {
				e.pos[i] = float64(i + 1)
				e.want[i] = 1 + 4*e.dwant[i]
			}
		}
		return
	}
	e.n++
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.want {
		e.want[i] += e.dwant[i]
	}
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			h := e.parabolic(i, s)
			if e.q[i-1] < h && h < e.q[i+1] {
				e.q[i] = h
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

func (e *refP2) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+d)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-d)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

func (e *refP2) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// TestP2MatchesReference feeds P2 and the reference the same streams and
// requires identical marker heights and positions, bit for bit, after
// every observation. On the stream with ±Inf and NaN it also pins the
// non-finite rule: every such value is counted by NonFinite, none by N,
// and the markers stay finite.
func TestP2MatchesReference(t *testing.T) {
	streams := map[string]func(r *rng.RNG, i int, prev float64) float64{
		// A population-like walk: integer steps, so heights tie often.
		"walk": func(r *rng.RNG, _ int, prev float64) float64 {
			next := prev + float64(r.Intn(3)-1)
			if next < 0 {
				return 0
			}
			return next
		},
		"constant": func(*rng.RNG, int, float64) float64 { return 7 },
		// Occasional ±Inf and NaN among ordinary values.
		"nonfinite": func(r *rng.RNG, _ int, _ float64) float64 {
			switch r.Intn(20) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			case 2:
				return math.NaN()
			}
			return r.Float64()*10 - 5
		},
		"uniform": func(r *rng.RNG, _ int, _ float64) float64 { return r.Float64() },
	}
	lengths := map[string]int{"walk": 200_000, "constant": 10_000, "nonfinite": 100_000, "uniform": 1_000_000}
	for name, next := range streams {
		for _, p := range []float64{0.1, 0.5, 0.9} {
			got, ref := NewP2(p), newRefP2(p)
			r := rng.New(31)
			x := 50.0
			nonFinite := 0
			for i := 0; i < lengths[name]; i++ {
				x = next(r, i, x)
				if math.IsNaN(x) || math.IsInf(x, 0) {
					nonFinite++
				}
				got.Observe(x)
				ref.Observe(x)
				if !sameBits(got.q, ref.q) || !sameBits(got.pos, ref.pos) {
					t.Fatalf("%s p=%v: after observation %d (x=%v) q=%v pos=%v, reference q=%v pos=%v",
						name, p, i, x, got.q, got.pos, ref.q, ref.pos)
				}
			}
			if got.NonFinite() != nonFinite || got.N() != lengths[name]-nonFinite {
				t.Errorf("%s p=%v: NonFinite %d, N %d; fed %d non-finite of %d",
					name, p, got.NonFinite(), got.N(), nonFinite, lengths[name])
			}
			for _, q := range got.q {
				if math.IsNaN(q) || math.IsInf(q, 0) {
					t.Errorf("%s p=%v: marker heights %v not all finite", name, p, got.q)
					break
				}
			}
		}
	}
}

func sameBits(a, b [5]float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
