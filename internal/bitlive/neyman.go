package bitlive

import (
	"fmt"
	"math"
	"sort"
)

// This file derives adaptive stratification plans from pilot-phase
// evidence — the Neyman-allocation half of adaptive campaigns
// (ANALYSIS.md, "Adaptive (Neyman) allocation"). A pilot runs the
// static default shape (live strata uniformly, the provably-masked
// stratum at the floor), tallies per-stratum SDC outcomes, and
// NeymanPlan turns those tallies into inclusion rates for the main
// phase: strata whose SDC mass is provably light are thinned hard,
// strata that carry the variance keep executing. The derivation is pure
// deterministic float math over the tallies, so the same pilot always
// yields the same plan (and the same Plan.Hash) on every resume and
// replay.

// DefaultRateFloor is the lowest inclusion rate NeymanPlan will assign:
// even a stratum whose pilot saw zero SDCs keeps executing one trial in
// twenty. The floor bounds the Horvitz-Thompson weight (1/floor = 20)
// and with it the variance penalty each hit the pilot missed can carry,
// and it doubles as a live cross-check on the pilot's verdict — exactly
// the role DefaultMaskedRate plays in the static plan.
const DefaultRateFloor = 0.05

// StratumPilot is one stratum's pilot-phase evidence.
type StratumPilot struct {
	// Bits is the stratum's classified result-bit count across the
	// module (ModuleStats); a stratum with zero bits is never drawn.
	Bits int
	// Slots is how many drawn pilot slots landed in the stratum —
	// counted before pilot thinning, so Slots/ΣSlots estimates the
	// stratum's share of the slot stream. Zero everywhere means the
	// caller predates pilot thinning; shares then fall back to Trials.
	Slots int
	// Trials is the number of executed, classified pilot trials that
	// landed in the stratum.
	Trials int
	// SDC is how many of those trials classified as SDC.
	SDC int
}

// NeymanPlan derives the main-phase inclusion rates from per-stratum
// pilot tallies. The classical Neyman rule allocates samples in
// proportion to stratum size × within-stratum stddev; our campaigns
// implement allocation by Bernoulli thinning of a uniform slot stream
// (each slot already lands in stratum h with probability equal to h's
// population share π_h), so the stratum-size factor is supplied by the
// stream and only the rate q_h is free. The thinned Horvitz-Thompson
// design's variance-cost product at rates q_h = min(1, c·√p_h) is
//
//	f(c) = V(c)·E(c),  V = Σ_h π_h (p_h(1−p_h) + p_h(1−q_h)/q_h),
//	                   E = Σ_h π_h q_h,
//
// the estimator variance times the executed budget — the quantity the
// equal-executed-budget CI shrink measures. The shape q_h ∝ √p_h is
// Neyman's σ-proportional rule in the low-p regime, but the scale c is
// a real degree of freedom: as c → ∞ every live stratum caps at 1 and
// the plan degenerates to the static default shape, so choosing c by
// minimizing f makes "don't thin live strata at all" a candidate the
// derived plan can never lose to in-model. f is piecewise smooth in c
// (breakpoints where a stratum hits the floor or the ceiling) with at
// most one interior stationary point per piece, so the minimum is found
// exactly. ANALYSIS.md carries the full derivation.
//
// The per-stratum SDC rates p_h feeding the optimization are
// Laplace-smoothed pilot fractions (s+1)/(t+2), so a live stratum whose
// small pilot happened to see zero SDCs is not thinned to the floor on
// the strength of absent evidence. The provably-masked stratum keeps
// its raw fraction: the liveness oracle guarantees its hits cannot
// occur, which no finite pilot could establish. Evidence-free corners
// stay conservative:
//
//   - a stratum with zero classified bits is never drawn; its rate is 1
//     so the plan hash does not depend on unobservable strata;
//   - a live stratum with bits but zero executed pilot trials has no
//     evidence — it runs at rate 1 rather than being thinned blind. The
//     provably-masked stratum is the exception: its zero-SDC verdict is
//     the liveness oracle's, not the pilot's, so it keeps the floor
//     even when pilot thinning executed none of its slots;
//   - when no stratum saw any SDC the pilot carries no variance signal
//     at all, and the plan falls back to the static default shape:
//     live strata at 1, the provably-masked stratum at floor.
//
// The returned plan always Validates; the error reports a floor outside
// (0, 1].
func NeymanPlan(pilot [NumStrata]StratumPilot, floor float64) (Plan, error) {
	if floor == 0 {
		floor = DefaultRateFloor
	}
	if !(floor > 0) || floor > 1 || math.IsNaN(floor) {
		return Plan{}, fmt.Errorf("bitlive: rate floor %v outside (0, 1]", floor)
	}
	// Per-stratum model inputs: slot share π (drawn pilot slots where
	// recorded, executed trials otherwise — the pilot is drawn from the
	// same stream the main phase thins, so either share estimates the
	// stratum share), smoothed SDC rate p̃, and σ-shape m = √p̃. A
	// negative m marks an evidence-free stratum, resolved to rate 1.
	var pi, pr, m [NumStrata]float64
	totalSlots, totalTrials, sawSDC := 0, 0, false
	for s := 0; s < NumStrata; s++ {
		t := pilot[s]
		if t.Bits <= 0 {
			m[s] = -1
			continue
		}
		if Stratum(s) != StratumMasked && t.Trials <= 0 {
			// A live stratum without executed pilot trials has no
			// evidence; the provably-masked stratum needs none (the
			// liveness oracle guarantees its hits cannot occur, so a
			// thinned-away pilot leaves its verdict intact).
			m[s] = -1
			continue
		}
		totalSlots += t.Slots
		totalTrials += t.Trials
		sdc := t.SDC
		if sdc < 0 {
			sdc = 0
		} else if sdc > t.Trials {
			sdc = t.Trials
		}
		if sdc > 0 {
			sawSDC = true
		}
		if Stratum(s) == StratumMasked {
			pr[s] = 0
			if t.Trials > 0 {
				pr[s] = float64(sdc) / float64(t.Trials)
			}
		} else {
			pr[s] = float64(sdc+1) / float64(t.Trials+2)
		}
		m[s] = math.Sqrt(pr[s])
	}
	if !sawSDC {
		// No SDC anywhere in the pilot: no variance signal to allocate
		// by. Keep the static default shape — only the provably-masked
		// stratum (whose hits the liveness oracle guarantees cannot
		// occur) is thinned.
		return MaskedRatePlan(floor), nil
	}
	for s := 0; s < NumStrata; s++ {
		if m[s] < 0 {
			continue
		}
		if totalSlots > 0 {
			pi[s] = float64(pilot[s].Slots) / float64(totalSlots)
		} else if totalTrials > 0 {
			pi[s] = float64(pilot[s].Trials) / float64(totalTrials)
		}
	}
	c := bestScale(pi, pr, m, floor)
	var p Plan
	for s := 0; s < NumStrata; s++ {
		if m[s] < 0 {
			p.Rates[s] = 1
			continue
		}
		p.Rates[s] = clampRate(c*m[s], floor)
	}
	return p, nil
}

// clampRate clamps a raw rate into [floor, 1].
func clampRate(r, floor float64) float64 {
	if r < floor {
		return floor
	}
	if r > 1 {
		return 1
	}
	return r
}

// costAt evaluates the variance-cost product f(c) = V(c)·E(c) of the
// clamped rate family over the modeled strata.
func costAt(pi, pr, m [NumStrata]float64, floor, c float64) float64 {
	v, e := 0.0, 0.0
	for s := 0; s < NumStrata; s++ {
		if m[s] < 0 || pi[s] == 0 {
			continue
		}
		q := clampRate(c*m[s], floor)
		v += pi[s] * (pr[s]*(1-pr[s]) + pr[s]*(1-q)/q)
		e += pi[s] * q
	}
	return v * e
}

// bestScale minimizes f(c) = V(c)·E(c) exactly over the piecewise-smooth
// family q_h(c) = clamp(c·m_h, floor, 1). Candidates are the clamp
// breakpoints floor/m_h and 1/m_h plus each smooth piece's interior
// stationary point: with A the c-independent part of V, B = Σ_free π·m
// and D the clamped part of E, f = (A + B/c)(D + B·c) is stationary at
// c* = √(D/A) when A > 0. Evaluation order is fixed and ties keep the
// larger c (the less-thinned plan), so the result is deterministic.
func bestScale(pi, pr, m [NumStrata]float64, floor float64) float64 {
	var bps []float64
	for s := 0; s < NumStrata; s++ {
		if m[s] <= 0 || pi[s] == 0 {
			continue
		}
		bps = append(bps, floor/m[s], 1/m[s])
	}
	if len(bps) == 0 {
		return 1
	}
	sort.Float64s(bps)
	cands := append([]float64(nil), bps...)
	// Interior stationary point of each piece, pieces delimited by the
	// sorted breakpoints. The piece's free set is probed at its midpoint.
	for i := 0; i <= len(bps); i++ {
		lo, hi := 0.0, math.Inf(1)
		if i > 0 {
			lo = bps[i-1]
		}
		if i < len(bps) {
			hi = bps[i]
		}
		if !(hi > lo) {
			continue
		}
		mid := lo * 2
		if i < len(bps) {
			mid = (lo + hi) / 2
		}
		if mid <= 0 {
			continue
		}
		a, b, d := 0.0, 0.0, 0.0
		for s := 0; s < NumStrata; s++ {
			if m[s] < 0 || pi[s] == 0 {
				continue
			}
			if q := mid * m[s]; q > floor && q < 1 {
				// Free: p(1−q)/q = p/q − p, and p/q = p/(c·m) = m/c since
				// m = √p — so the stratum adds m/c to V and c·m to E.
				a += pi[s] * (pr[s]*(1-pr[s]) - pr[s])
				b += pi[s] * m[s]
			} else {
				qc := clampRate(q, floor)
				a += pi[s] * (pr[s]*(1-pr[s]) + pr[s]*(1-qc)/qc)
				d += pi[s] * qc
			}
		}
		if a > 0 && b > 0 {
			if c := math.Sqrt(d / a); c > lo && c < hi {
				cands = append(cands, c)
			}
		}
	}
	best, bestF := 0.0, math.Inf(1)
	for _, c := range cands {
		if !(c > 0) {
			continue
		}
		if f := costAt(pi, pr, m, floor, c); f < bestF || (f == bestF && c > best) {
			best, bestF = c, f
		}
	}
	if best == 0 {
		return 1
	}
	return best
}
