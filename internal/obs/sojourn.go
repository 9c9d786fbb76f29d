package obs

import (
	"fmt"

	"repro/internal/dist"
)

// Sojourn tracks per-entity time in system: the process calls Arrive(t)
// when an entity enters and Depart(t, d) when one leaves after a sojourn of
// d, and the tracker accumulates a Welford summary and P² quantiles of the
// durations, the arrival count, and its own occupancy integral (the open
// count is the population restricted to tracked entities). That makes it
// self-sufficient for Little's-law cross-checks: L (time-averaged
// occupancy), λ (arrival rate), and W (mean sojourn) all come from one
// object observing one stream.
//
// Sojourn is fed by the process, not by the kernel event stream — arrivals
// and departures are semantic process events, not kernel event classes —
// so its OnEvent is a no-op; it rides in a Set for sealing and emission.
// The process keeps each entity's arrival time itself and hands the
// duration to Depart, so the tracker stores no per-entity state and never
// allocates on the event path.
type Sojourn struct {
	name     string
	open     int          // entities arrived and not yet departed
	w        dist.Summary // durations of departed entities
	median   *dist.P2
	p90      *dist.P2
	occ      dist.TimeAverage
	arrivals int
	started  bool
	t0, t1   float64 // observation window
}

// NewSojourn builds a tracker. The name prefixes its emitted scalars.
func NewSojourn(name string) *Sojourn {
	return &Sojourn{
		name:   name,
		median: dist.NewP2(0.5),
		p90:    dist.NewP2(0.9),
	}
}

// Name returns the tracker name.
func (s *Sojourn) Name() string { return s.name }

// OnEvent implements Observer as a no-op: the tracker's inputs are the
// process's Arrive/Depart calls, not kernel events.
func (s *Sojourn) OnEvent(float64, int, float64) {}

func (s *Sojourn) observeWindow(t float64) {
	if !s.started {
		s.started = true
		s.t0 = t
	}
	s.t1 = t
	s.occ.Observe(t, float64(s.open))
}

// Arrive records that an entity entered at time t.
func (s *Sojourn) Arrive(t float64) {
	s.open++
	s.arrivals++
	s.observeWindow(t)
}

// Depart records that an entity left at time t after a sojourn of d and
// folds d into the statistics. A departure with no entity open is an
// invariant violation and panics.
func (s *Sojourn) Depart(t, d float64) {
	if s.open == 0 {
		panic(fmt.Sprintf("obs: sojourn %q departure with no entity open", s.name))
	}
	s.open--
	s.w.Add(d)
	s.median.Observe(d)
	s.p90.Observe(d)
	s.observeWindow(t)
}

// Seal implements Sealer: close the occupancy integral at the end time.
func (s *Sojourn) Seal(t float64) { s.observeWindow(t) }

// Arrivals returns the number of arrivals observed.
func (s *Sojourn) Arrivals() int { return s.arrivals }

// Open returns the number of entities currently in the system.
func (s *Sojourn) Open() int { return s.open }

// Durations returns the Welford summary of departed-entity sojourns — the
// W of Little's law (its Mean) plus spread.
func (s *Sojourn) Durations() *dist.Summary { return &s.w }

// Median returns the streaming P² median sojourn time.
func (s *Sojourn) Median() float64 { return s.median.Value() }

// P90 returns the streaming P² 90th-percentile sojourn time.
func (s *Sojourn) P90() float64 { return s.p90.Value() }

// L returns the time-averaged tracked occupancy over the observation
// window — the L of Little's law.
func (s *Sojourn) L() float64 { return s.occ.Value() }

// Lambda returns the empirical arrival rate over the observation window
// (0 before any time has elapsed).
func (s *Sojourn) Lambda() float64 {
	if span := s.t1 - s.t0; span > 0 {
		return float64(s.arrivals) / span
	}
	return 0
}

// LittleGap returns L − λ·W, the finite-horizon Little's-law residual; it
// converges to zero as the window grows in a stable system.
func (s *Sojourn) LittleGap() float64 { return s.L() - s.Lambda()*s.w.Mean() }

// EmitTo implements Emitter: the tracker's headline scalars, prefixed with
// its name.
func (s *Sojourn) EmitTo(snap *Snapshot) {
	if s.w.N() == 0 {
		return
	}
	snap.setValue(s.name+".w_mean", s.w.Mean())
	snap.setValue(s.name+".w_p50", s.Median())
	snap.setValue(s.name+".w_p90", s.P90())
	snap.setValue(s.name+".l", s.L())
	snap.setValue(s.name+".lambda", s.Lambda())
	snap.setValue(s.name+".departed", float64(s.w.N()))
}
