// Package kernel is the shared CTMC event engine under every simulator in
// the repository. It owns the simulation clock, the exponential holding
// times, the race-of-exponentials branch selection, the event counter, and
// the occupancy (time-averaged population) estimator; a simulator plugs in
// as a Process that reports its per-class event rates and fires the chosen
// transition. The package also provides the Fenwick-tree weighted samplers
// (Counts, Weighted) that make "pick a uniform peer / categorical type /
// rate-weighted branch" O(log n), and the scenario layer (Scenario,
// FlashCrowd) for time-varying workloads.
//
// Determinism contract: a kernel step consumes exactly one Exp variate and
// one Float64 variate from the stream before handing control to
// Process.Fire, which may consume more. Exp is a ziggurat sampler: one
// 64-bit word on its fast path, more on its rare wedge and tail paths, so a
// step's word count is a function of the stream, not a constant (pinned by
// TestKernelStepDrawCount over every path). Every draw is a pure function of
// the stream, so two kernels over identical processes and identically
// seeded streams replay bit-for-bit. The parallel Monte-Carlo engine
// (internal/engine) relies on this to keep replicated tables byte-identical
// across worker counts.
package kernel

import (
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/rng"
)

// ErrNoProgress reports a zero total event rate: the chain has no enabled
// transition and simulated time cannot advance.
var ErrNoProgress = errors.New("kernel: zero total event rate")

// ErrHalted reports that the attached tap asked the kernel to stop after a
// committed event (a hitting-time watcher fired, typically). The event that
// triggered the halt has been fully applied and observed; callers treat the
// error as a clean early stop, not a failure.
var ErrHalted = errors.New("kernel: halted by observer")

// Tap receives every committed kernel event, after Fire has run and the
// occupancy estimator has been updated. population is the post-event
// Process.Population(). The streaming observer pipeline (internal/obs)
// implements Tap; a nil tap costs one predictable branch per event
// (< 2% of the event-loop budget, enforced by TestTapOffOverhead).
type Tap interface {
	OnEvent(t float64, class int, population float64)
}

// Halter is optionally implemented by taps that can request an early stop
// (hitting-time watchers). When Halted returns true after an event, Step
// returns ErrHalted.
type Halter interface {
	Halted() bool
}

// Process is one continuous-time Markov chain plugged into the kernel.
// Implementations are the four simulators (type-count, peer-granular,
// network-coded, borderline) and any future workload.
type Process interface {
	// Rates appends the current per-class event rates to buf and returns
	// it. The class order must be fixed for the lifetime of the process;
	// individual rates may be zero. For thinned (time-varying) classes the
	// reported rate is the upper bound and Fire rejects the excess.
	Rates(buf []float64) []float64
	// Fire executes one event of the given class. It runs after the clock
	// has advanced, so the process sees the event's timestamp. An error
	// aborts the step and surfaces from Kernel.Step.
	Fire(class int) error
	// Population returns the observable the kernel's occupancy estimator
	// tracks (the number of peers, for every simulator in this repo).
	Population() float64
}

// Kernel advances one Process event by event. It is not safe for
// concurrent use; the parallel engine runs one kernel per replica stream.
type Kernel struct {
	r      *rng.RNG
	proc   Process
	now    float64
	events uint64
	rates  []float64
	occ    dist.TimeAverage
	tap    Tap
	halter Halter

	// ins holds the instrumentation handles; due is the event count at
	// which the next batch flush falls (math.MaxUint64 when instrumentation
	// is off) and mark where the last flushed batch ended — see
	// instrument.go.
	ins  instr
	due  uint64
	mark batchMark
}

// New builds a kernel driving proc from the given stream and records the
// initial occupancy observation at time zero. When a telemetry registry or
// a tracer is installed, the kernel binds its instrumentation here; binding
// consumes no randomness and never changes which realization a seed
// produces.
func New(r *rng.RNG, proc Process) *Kernel {
	k := &Kernel{r: r, proc: proc}
	k.bindInstr()
	k.occ.Observe(0, proc.Population())
	return k
}

// Now returns the current simulated time.
func (k *Kernel) Now() float64 { return k.now }

// Events returns the number of events processed (including no-ops).
func (k *Kernel) Events() uint64 { return k.events }

// RNG returns the kernel's stream, shared with the process's sub-draws.
func (k *Kernel) RNG() *rng.RNG { return k.r }

// SetTap attaches (or, with nil, detaches) the post-event observer tap.
// If the tap also implements Halter, Step honors its stop requests by
// returning ErrHalted. Taps consume no randomness, so attaching one never
// changes which realization a seed produces.
func (k *Kernel) SetTap(t Tap) {
	k.tap = t
	k.halter = nil
	if h, ok := t.(Halter); ok {
		k.halter = h
	}
}

// Tap returns the currently attached tap (nil when none), so callers can
// compose temporary observers around an existing pipeline and restore it.
func (k *Kernel) Tap() Tap { return k.tap }

// TapHalted reports whether the attached tap is currently requesting a
// halt — how callers of a simulator whose RunUntil returns no StopReason
// (peersim, codedsim) tell an observer stop from a horizon stop.
func (k *Kernel) TapHalted() bool { return k.halter != nil && k.halter.Halted() }

// MeanPopulation returns the time-averaged population since construction
// or the last ResetOccupancy — the estimator for E[N].
func (k *Kernel) MeanPopulation() float64 { return k.occ.Value() }

// ResetOccupancy restarts the E[N] estimator at the current instant,
// discarding burn-in.
func (k *Kernel) ResetOccupancy() {
	k.occ = dist.TimeAverage{}
	k.occ.Observe(k.now, k.proc.Population())
}

// Step advances the chain by exactly one event (which may be a no-op):
// query rates, draw the holding time against the total, select the class
// by one uniform draw over the cumulative rates, fire, observe occupancy.
func (k *Kernel) Step() error {
	k.rates = k.proc.Rates(k.rates[:0])
	var total float64
	for _, r := range k.rates {
		total += r
	}
	if total <= 0 {
		k.ins.noProgress.Inc()
		k.FlushMetrics()
		k.ins.trc.Anomaly("kernel.no-progress", int64(k.events))
		return ErrNoProgress
	}
	k.now += k.r.Exp(total)
	k.events++
	if k.events >= k.due {
		k.FlushMetrics()
	}

	u := k.r.Float64() * total
	class := -1
	for i, r := range k.rates {
		if r <= 0 {
			continue
		}
		class = i
		u -= r
		if u < 0 {
			break
		}
	}
	// Floating-point round-off can leave u >= 0 after the loop; class then
	// holds the last positive-rate entry, the race's closest boundary.
	if err := k.proc.Fire(class); err != nil {
		return err
	}
	pop := k.proc.Population()
	k.occ.Observe(k.now, pop)
	if k.tap != nil {
		k.tap.OnEvent(k.now, class, pop)
		if k.halter != nil && k.halter.Halted() {
			k.ins.halts.Inc()
			k.FlushMetrics()
			k.ins.trc.Anomaly("kernel.halted", int64(k.events))
			return ErrHalted
		}
	}
	return nil
}

// StopReason explains why RunUntil returned.
type StopReason int

// Stop reasons.
const (
	StopTime     StopReason = iota + 1 // simulated time reached the limit
	StopPeers                          // population reached the limit
	StopObserver                       // an attached hitting-time watcher halted the run
)

// String names the stop reason.
func (s StopReason) String() string {
	switch s {
	case StopTime:
		return "time-limit"
	case StopPeers:
		return "peer-limit"
	case StopObserver:
		return "observer-halt"
	default:
		return fmt.Sprintf("stop(%d)", int(s))
	}
}

// RunUntil is the one run loop of every kernel-backed simulator: it steps
// while Now() < maxTime, stopping first with StopPeers once the process
// population reaches maxPeers (checked before each step; maxPeers <= 0
// disables the limit). An attached halting tap ends the run cleanly with
// StopObserver. The open instrumentation batch is flushed on return, so
// kernel_events_total is exact at run end.
func (k *Kernel) RunUntil(maxTime float64, maxPeers int) (StopReason, error) {
	defer k.FlushMetrics()
	for k.now < maxTime {
		if maxPeers > 0 && k.proc.Population() >= float64(maxPeers) {
			return StopPeers, nil
		}
		if err := k.Step(); err != nil {
			if errors.Is(err, ErrHalted) {
				return StopObserver, nil
			}
			return 0, err
		}
	}
	return StopTime, nil
}
