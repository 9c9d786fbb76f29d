package obs

import (
	"fmt"

	"repro/internal/dist"
)

// Quantiles streams a probed scalar through P² estimators, one per target
// quantile. The probe is read after every committed event, so the
// estimates are event-sampled (weighted by event count, not by time) —
// right for "what population does an event typically see", and documented
// at the call sites that print them.
type Quantiles struct {
	name  string
	probe Probe
	ps    []float64
	ests  []*dist.P2
}

// NewQuantiles builds estimators for the given quantiles (each in (0,1)).
func NewQuantiles(name string, probe Probe, ps ...float64) *Quantiles {
	if len(ps) == 0 {
		panic(fmt.Sprintf("obs: quantiles %q needs at least one target", name))
	}
	q := &Quantiles{name: name, probe: probe, ps: ps}
	for _, p := range ps {
		q.ests = append(q.ests, dist.NewP2(p))
	}
	return q
}

// Name returns the observer name.
func (q *Quantiles) Name() string { return q.name }

// OnEvent implements Observer.
func (q *Quantiles) OnEvent(float64, int, float64) {
	v := q.probe()
	for _, e := range q.ests {
		e.Observe(v)
	}
}

// Value returns the current estimate for the i-th configured quantile.
func (q *Quantiles) Value(i int) float64 { return q.ests[i].Value() }

// N returns the number of observations streamed so far.
func (q *Quantiles) N() int { return q.ests[0].N() }

// EmitTo implements Emitter: one scalar per quantile, named
// "<name>.p<100p>" (e.g. n.p50, n.p90).
func (q *Quantiles) EmitTo(snap *Snapshot) {
	if q.N() == 0 {
		return
	}
	for i, p := range q.ps {
		snap.setValue(fmt.Sprintf("%s.p%g", q.name, 100*p), q.ests[i].Value())
	}
}
