package hybrid

import (
	"math"
	"math/bits"

	"repro/internal/pieceset"
	"repro/internal/sim"
)

// channel is one aggregate transition class of the type-count chain: the
// state moves by −e_from +e_to at rate rate. from/to are type bitmasks, −1
// meaning "none" (arrivals have no source, departures no destination).
type channel struct {
	rate float64
	from int32
	to   int32
}

// maxLeapRejects bounds the halve-and-redraw recovery before giving up on
// the leap and falling back to the exact kernel.
const maxLeapRejects = 25

// buildChannels enumerates every positive-rate transition class at the
// current dense state, in a fixed deterministic order: arrivals in ascending
// type order, then uploads by ascending source type and ascending piece,
// then the peer-seed departure class. The upload rate is Γ_{C,C∪{i}} of
// equation (1) — identical to model.UploadRate and to the law the exact
// simulator's contact events realize (no-op contacts are thinning and do not
// change the jump law).
func (h *Swarm) buildChannels() {
	h.chans = h.chans[:0]
	h.occupied = h.occupied[:0]
	for idx, v := range h.x {
		if v > 0 {
			h.occupied = append(h.occupied, pieceset.Set(idx))
		}
	}
	for i, c := range h.arrivalTypes {
		h.chans = append(h.chans, channel{rate: h.arrivalRates[i], from: -1, to: int32(c)})
	}
	n := float64(h.n)
	for _, c := range h.occupied {
		if c == h.full {
			continue
		}
		xc := float64(h.x[int(c)])
		share := xc / n
		for rem := uint32(c.Complement(h.params.K)); rem != 0; rem &= rem - 1 {
			i := trailingPiece(rem)
			r := h.params.Us / float64(h.params.K-c.Size())
			for _, s := range h.occupied {
				if !s.Has(i) {
					continue
				}
				r += h.params.Mu * float64(h.x[int(s)]) / float64(s.Minus(c).Size())
			}
			rate := share * r
			if rate <= 0 {
				continue
			}
			to := int32(c.With(i))
			if pieceset.Set(to) == h.full && h.params.GammaInf() {
				to = -1 // completion departs immediately
			}
			h.chans = append(h.chans, channel{rate: rate, from: int32(c), to: to})
		}
	}
	if !h.params.GammaInf() {
		if xf := h.x[int(h.full)]; xf > 0 {
			h.chans = append(h.chans, channel{
				rate: h.params.Gamma * float64(xf), from: int32(h.full), to: -1,
			})
		}
	}
}

// selectTau runs the Cao–Gillespie bounded-relative-change selection over
// the built channels: for every coordinate j touched by a channel, the leap
// must satisfy |μ_j|·τ ≤ max(ε·x_j, 1) and σ²_j·τ ≤ max(ε·x_j, 1)², where
// μ_j and σ²_j are the net drift and jump variance the channels induce on
// x_j. Coordinates near zero therefore get an absolute change bound of ~1,
// shrinking τ until a leap is no longer worthwhile — the signal the caller
// uses to fall back to the exact kernel.
func (h *Swarm) selectTau() (tau, total float64) {
	for i := range h.muBuf {
		h.muBuf[i] = 0
		h.sigBuf[i] = 0
	}
	for _, c := range h.chans {
		total += c.rate
		if c.from >= 0 {
			h.muBuf[c.from] -= c.rate
			h.sigBuf[c.from] += c.rate
		}
		if c.to >= 0 {
			h.muBuf[c.to] += c.rate
			h.sigBuf[c.to] += c.rate
		}
	}
	tau = math.Inf(1)
	for j := 0; j < h.dim; j++ {
		mu, sig := h.muBuf[j], h.sigBuf[j]
		if mu == 0 && sig == 0 {
			continue
		}
		b := epsilon * float64(h.x[j])
		if b < 1 {
			b = 1
		}
		if mu != 0 {
			if t := b / math.Abs(mu); t < tau {
				tau = t
			}
		}
		if sig > 0 {
			if t := b * b / sig; t < tau {
				tau = t
			}
		}
	}
	return tau, total
}

// runLeap advances the chain by Poisson tau-leaps until the state leaves the
// leap band (→ exact or fluid), the leap stops being worthwhile (→ exact),
// or a run limit fires. Every leap draws one Poisson variate per channel in
// the fixed channel order, so the trajectory is a pure function of the
// replica stream.
func (h *Swarm) runLeap(maxTime float64, maxPeers int) (sim.StopReason, bool, error) {
	for {
		if maxPeers > 0 && h.n >= int64(maxPeers) {
			return sim.StopPeers, true, nil
		}
		if h.watchFired() {
			return sim.StopObserver, true, nil
		}
		if h.now >= maxTime {
			return sim.StopTime, true, nil
		}
		m := h.trackedMin()
		if m < h.leapExit {
			h.switchTo(Exact)
			return 0, false, nil
		}
		if h.fluidEligible(m) {
			h.switchTo(Fluid)
			return 0, false, nil
		}
		h.buildChannels()
		tauSel, total := h.selectTau()
		if total <= 0 {
			// No outflow and no arrivals cannot happen (validation requires
			// λ_total > 0), but guard against a dead state by finishing the
			// horizon rather than spinning.
			h.now = maxTime
			return sim.StopTime, true, nil
		}
		if tauSel*total < minLeapEvents {
			// The bounded-change step batches too few events to beat the
			// exact kernel; dwell there before reconsidering.
			h.exactHold = exactDwell
			h.switchTo(Exact)
			return 0, false, nil
		}
		tau := tauSel
		if remaining := maxTime - h.now; tau > remaining {
			tau = remaining
		}
		if !h.applyLeap(tau) {
			// Persistent negativity at ever-smaller steps: the state is
			// effectively on a boundary, where the exact chain belongs.
			h.exactHold = exactDwell
			h.switchTo(Exact)
			return 0, false, nil
		}
	}
}

// applyLeap draws the channel counts for a leap of size tau, halving tau
// and redrawing whenever the update would drive a coordinate negative.
// It reports whether a leap was committed.
func (h *Swarm) applyLeap(tau float64) bool {
	for reject := 0; reject <= maxLeapRejects; reject++ {
		for i := range h.deltaBuf {
			h.deltaBuf[i] = 0
		}
		var events, dn int64
		for _, c := range h.chans {
			k := int64(h.r.Poisson(c.rate * tau))
			if k == 0 {
				continue
			}
			events += k
			if c.from >= 0 {
				h.deltaBuf[c.from] -= k
			} else {
				dn += k
			}
			if c.to >= 0 {
				h.deltaBuf[c.to] += k
			} else {
				dn -= k
			}
		}
		ok := true
		for j, d := range h.deltaBuf {
			if h.x[j]+d < 0 {
				ok = false
				break
			}
		}
		if !ok {
			h.stats.LeapRejects++
			h.met.leapRejects.Inc()
			tau /= 2
			continue
		}
		for j, d := range h.deltaBuf {
			h.x[j] += d
		}
		h.n += dn
		h.now += tau
		h.stats.Leaps++
		h.stats.LeapEvents += uint64(events)
		h.stats.LeapTime += tau
		h.met.leaps.Inc()
		h.met.leapEvents.Add(uint64(events))
		h.met.instant(instLeap, events)
		h.occ.Observe(h.now, float64(h.n))
		return true
	}
	return false
}

// trailingPiece maps the lowest set bit of a non-empty mask to its 1-based
// piece number, the same correspondence pieceset.Set.ForEach walks.
func trailingPiece(mask uint32) int {
	return bits.TrailingZeros32(mask) + 1
}
