package hybrid

import (
	"math"

	"repro/internal/sim"
)

// fluidEligible decides whether the deterministic fluid ODE may take over:
// never while a hitting-time watch is armed (watches need fluctuations),
// and only once every tracked coordinate clears the fluidEnter threshold,
// where relative fluctuations are O(1/√fluidEnter).
// The final gate — a trial step whose step-doubling error meets fluidTol —
// runs inside runFluid, which falls straight back to leaping if the trial
// fails; this predicate stays cheap.
func (h *Swarm) fluidEligible(trackedMin int64) bool {
	return len(h.watches) == 0 && trackedMin >= h.fluidEnter
}

// runFluid advances the mean-field ODE with an adaptive step controlled by
// the step-doubling local error estimate: a step whose estimate exceeds
// fluidTol is retried at half the size, and a comfortably accurate step
// doubles the next one. The regime consumes no randomness; on exit the
// continuous state is quantized back to integer counts (half-up rounding,
// the γ = ∞ full coordinate pinned at zero) and handed to the leap regime.
func (h *Swarm) runFluid(maxTime float64, maxPeers int) (sim.StopReason, bool, error) {
	for i, v := range h.x {
		h.xf[i] = float64(v)
	}
	entry := h.now
	// Step bounds: the cap keeps occupancy sampling (and the peer-cap and
	// horizon checks) reasonably granular across the fluid stretch; the
	// floor declares the ODE too stiff for the tolerance and exits.
	maxDt := (maxTime - entry) / 32
	if maxDt <= 0 {
		return sim.StopTime, true, nil
	}
	minDt := maxDt * 1e-9
	if h.fluidDt <= 0 {
		h.fluidDt = maxDt / 64
	}
	dt := h.fluidDt
	for {
		if h.now >= maxTime {
			h.quantizeFluid()
			return sim.StopTime, true, nil
		}
		if remaining := maxTime - h.now; dt > remaining {
			dt = remaining
		}
		if dt > maxDt {
			dt = maxDt
		}
		copy(h.xfPrev, h.xf)
		errRel, err := h.fstep.StepDoubling(h.xf, dt)
		if err != nil {
			return 0, false, err
		}
		if errRel > fluidTol {
			copy(h.xf, h.xfPrev)
			if dt <= minDt {
				// Too stiff for the tolerance: hand back to the stochastic
				// regimes rather than silently degrading accuracy.
				h.quantizeFluid()
				h.switchTo(Leap)
				return 0, false, nil
			}
			dt /= 2
			continue
		}
		h.now += dt
		h.stats.FluidSteps++
		h.stats.FluidTime += dt
		h.met.fluidSteps.Inc()
		var n float64
		for _, v := range h.xf {
			n += v
		}
		h.occ.Observe(h.now, n)
		if errRel < fluidTol/64 && dt < maxDt {
			dt *= 2
		}
		h.fluidDt = dt
		if maxPeers > 0 && n >= float64(maxPeers) {
			h.quantizeFluid()
			return sim.StopPeers, true, nil
		}
		if h.fluidTrackedMin() < float64(h.fluidExit) {
			h.quantizeFluid()
			h.switchTo(Leap)
			return 0, false, nil
		}
	}
}

// fluidTrackedMin is trackedMin over the continuous state.
func (h *Swarm) fluidTrackedMin() float64 {
	m := math.Inf(1)
	for idx, v := range h.xf {
		if h.params.GammaInf() && idx == int(h.full) {
			continue
		}
		if v == 0 && h.lambdaByIdx[idx] == 0 {
			continue
		}
		if v < m {
			m = v
		}
	}
	if math.IsInf(m, 1) {
		return 0
	}
	return m
}

// quantizeFluid rounds the continuous state back into the integer counts,
// clamping at zero and keeping the γ = ∞ full coordinate empty.
func (h *Swarm) quantizeFluid() {
	var n int64
	for idx, v := range h.xf {
		q := int64(math.Round(v))
		if q < 0 {
			q = 0
		}
		if h.params.GammaInf() && idx == int(h.full) {
			q = 0
		}
		h.x[idx] = q
		n += q
	}
	h.n = n
}
