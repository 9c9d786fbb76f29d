package obs

import (
	"fmt"
	"math"
)

// Quantiles records the exact event-sampled distribution of a probed count
// (a peer population, say) and reads quantiles off it. The probe is read
// after every committed event, so the quantiles are weighted by event
// count, not by time — right for "what population does an event typically
// see", and documented at the call sites that print them.
//
// The state is a histogram: counts[v] is the number of events after which
// the probe read v. Memory is O(largest value seen), which a run's peer cap
// bounds. The probe must return an integer in [0, MaxInt32]; any other
// value (NaN, ±Inf, a fraction, a negative number) is a misuse and panics.
type Quantiles struct {
	name   string
	probe  Probe
	ps     []float64
	counts []uint64
	n      uint64
}

// NewQuantiles builds an observer for the given quantiles (each in (0,1)).
func NewQuantiles(name string, probe Probe, ps ...float64) *Quantiles {
	if len(ps) == 0 {
		panic(fmt.Sprintf("obs: quantiles %q needs at least one target", name))
	}
	for _, p := range ps {
		if !(p > 0 && p < 1) {
			panic(fmt.Sprintf("obs: quantiles %q target p=%v outside (0,1)", name, p))
		}
	}
	return &Quantiles{name: name, probe: probe, ps: ps}
}

// Name returns the observer name.
func (q *Quantiles) Name() string { return q.name }

// OnEvent implements Observer.
func (q *Quantiles) OnEvent(float64, int, float64) {
	v := q.probe()
	i := int(v)
	if !(v >= 0 && v <= math.MaxInt32) || float64(i) != v {
		panic(fmt.Sprintf("obs: quantiles %q probe read %v, not a count in [0, MaxInt32]", q.name, v))
	}
	if i >= len(q.counts) {
		q.counts = append(q.counts, make([]uint64, i+1-len(q.counts))...)
	}
	q.counts[i]++
	q.n++
}

// Value returns the i-th configured quantile of the observations so far,
// by the R-7 rule of dist.ExactQuantile (linear interpolation between the
// order statistics at ranks ⌊h⌋ and ⌊h⌋+1, h = p·(n−1)); NaN before any
// observation.
func (q *Quantiles) Value(i int) float64 {
	if q.n == 0 {
		return math.NaN()
	}
	h := q.ps[i] * float64(q.n-1)
	lo := uint64(h)
	xlo := q.orderStat(lo)
	if lo >= q.n-1 {
		return xlo
	}
	xhi := q.orderStat(lo + 1)
	return xlo + (h-float64(lo))*(xhi-xlo)
}

// orderStat returns the observation at 0-based rank r of the sorted stream.
func (q *Quantiles) orderStat(r uint64) float64 {
	var cum uint64
	for v, c := range q.counts {
		cum += c
		if cum > r {
			return float64(v)
		}
	}
	panic(fmt.Sprintf("obs: quantiles %q rank %d out of %d observations", q.name, r, q.n))
}

// N returns the number of observations recorded so far.
func (q *Quantiles) N() int { return int(q.n) }

// EmitTo implements Emitter: one scalar per quantile, named
// "<name>.p<100p>" (e.g. n.p50, n.p90).
func (q *Quantiles) EmitTo(snap *Snapshot) {
	if q.n == 0 {
		return
	}
	for i, p := range q.ps {
		snap.setValue(fmt.Sprintf("%s.p%g", q.name, 100*p), q.Value(i))
	}
}
