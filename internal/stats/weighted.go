package stats

import "math"

// This file holds the weighted-tally machinery behind stratified
// (importance-sampled) FI campaigns: trials drawn with unequal inclusion
// probabilities carry inverse-probability weights, estimates become
// Horvitz-Thompson sums, and confidence intervals shrink to an effective
// sample size rather than the raw trial count. ANALYSIS.md ("Stratified
// sampling over live bits") derives the estimator and variance used here.

// WeightedWilsonBounds returns the lower and upper 95% Wilson score
// bounds of a proportion p backed by a real-valued effective sample size
// neff. It generalizes WilsonBounds: for integral neff the two agree
// exactly, so unweighted campaigns are the special case neff == n. Both
// bounds are clamped to [0, 1] — the raw Wilson algebra can stray a few
// ULPs outside the unit interval at p ∈ {0, 1} (floating-point
// cancellation between the center and half-width terms), and downstream
// consumers (JSON schemas, plots, gates) require proper probabilities.
//
// Degenerate inputs — no effective sample (neff ≤ 0, NaN or ±Inf) or an
// undefined point estimate — yield the full-width interval [0, 1]: with
// zero information the honest bound is "anywhere", never a zero-width
// interval that would read as absolute certainty.
func WeightedWilsonBounds(p, neff float64) (lo, hi float64) {
	if !(neff > 0) || math.IsInf(neff, 0) || math.IsNaN(p) {
		return 0, 1
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	const z = 1.96
	z2 := z * z
	denom := 1 + z2/neff
	center := (p + z2/(2*neff)) / denom
	half := z * math.Sqrt(p*(1-p)/neff+z2/(4*neff*neff)) / denom
	lo = center - half
	hi = center + half
	// Cancellation between center and half can leave a bound a few ULPs
	// on the wrong side of the (clamped) point estimate or of the unit
	// interval; snap so that 0 <= lo <= p <= hi <= 1 always holds.
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	if lo > p {
		lo = p
	}
	if hi < p {
		hi = p
	}
	return lo, hi
}

// WeightedProportionCI95 is ProportionCI95 for a weighted estimate: the
// half-width of the 95% Wilson interval at effective sample size neff,
// measured from the point estimate p to the farther bound. At degenerate
// inputs the interval is the full unit width (see WeightedWilsonBounds),
// so the half-width is 1 — maximally uninformative, never falsely tight.
func WeightedProportionCI95(p, neff float64) float64 {
	if math.IsNaN(p) {
		return 1
	}
	lo, hi := WeightedWilsonBounds(p, neff)
	if p < lo {
		p = lo
	} else if p > hi {
		p = hi
	}
	return math.Max(p-lo, hi-p)
}

// KishNeff returns Kish's effective sample size (Σw)²/Σw² for a set of
// weights with sum sumW and sum of squares sumW2. Under uniform weights
// it equals the observation count exactly; unequal weights always lower
// it (design effect ≥ 1 by Cauchy-Schwarz). Degenerate inputs — an empty
// tally (both sums zero), NaN or infinite sums — return a defined
// n_eff = 0 rather than propagating NaN into interval math.
func KishNeff(sumW, sumW2 float64) float64 {
	if !(sumW > 0) || !(sumW2 > 0) || math.IsInf(sumW, 0) || math.IsInf(sumW2, 0) {
		return 0
	}
	return sumW * sumW / sumW2
}

// WeightedTally accumulates inverse-probability-weighted Bernoulli
// observations: each trial is recorded with its weight w = 1/q (q the
// inclusion probability that selected it) and its outcome. The zero
// value is an empty tally ready for use.
type WeightedTally struct {
	// N is the number of observations added.
	N int
	// W is Σ w_i and W2 is Σ w_i² over all observations.
	W, W2 float64
	// Hits is Σ w_i over successful observations; HitN counts them.
	Hits float64
	HitN int
	// HitVar is Σ w_i(w_i-1) over successful observations — with
	// w = 1/q this is Σ (1-q)/q², the per-slot Bernoulli-thinning
	// variance that only success-bearing slots contribute to a
	// Horvitz-Thompson total. Observations with w < 1 contribute 0
	// (they cannot arise from thinning and would push the sum
	// negative).
	HitVar float64
}

// Add records one observation with weight w (ignored unless w > 0 and
// finite).
func (t *WeightedTally) Add(w float64, hit bool) {
	if !(w > 0) || math.IsInf(w, 0) {
		return
	}
	t.N++
	t.W += w
	t.W2 += w * w
	if hit {
		t.HitN++
		t.Hits += w
		if w > 1 {
			t.HitVar += w * (w - 1)
		}
	}
}

// Proportion returns the self-normalized (Hájek) estimate Σw·x / Σw, the
// natural point estimate when the weighted total is compared against the
// weighted observation count. It is 0 for an empty tally.
func (t WeightedTally) Proportion() float64 {
	if !(t.W > 0) {
		return 0
	}
	p := t.Hits / t.W
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// KishNeff returns Kish's effective sample size for the tally's weights.
// Under uniform weights it equals N exactly.
func (t WeightedTally) KishNeff() float64 {
	return KishNeff(t.W, t.W2)
}

// WilsonBounds returns the 95% Wilson bounds of Proportion() at the
// Kish effective sample size. With uniform weights this equals the
// unweighted WilsonBounds(p, N) exactly.
func (t WeightedTally) WilsonBounds() (lo, hi float64) {
	return WeightedWilsonBounds(t.Proportion(), t.KishNeff())
}

// HTProportion returns the Horvitz-Thompson estimate Σw·x / denom
// against a known population denominator (for stratified campaigns, the
// number of slots drawn before thinning, less the weight of discarded
// observations). Unlike Proportion it is exactly unbiased: E[Σw·x] is
// the true success count over the denominator's population. The result
// is clamped to [0, 1].
func (t WeightedTally) HTProportion(denom float64) float64 {
	if !(denom > 0) {
		return 0
	}
	p := t.Hits / denom
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// HTEffectiveN returns the variance-matched effective sample size of the
// Horvitz-Thompson estimate over denom slots: the n* such that a
// binomial proportion over n* trials has the same variance as the
// two-stage estimate. The variance of p̂ = Σw·x/denom decomposes into
// the stage-one binomial term p(1-p)/denom plus the thinning term
// Σ_hits (1-q)/q² / denom² (HitVar), so
//
//	n* = p̂(1-p̂) / ( p̂(1-p̂)/denom + HitVar/denom² ).
//
// Uniform unit weights have HitVar = 0 and n* = denom exactly. When the
// point estimate is degenerate (p̂ ∈ {0, 1}, zero estimated variance)
// the Kish effective size over the executed observations is returned as
// a conservative fallback, so intervals never collapse to zero width.
func (t WeightedTally) HTEffectiveN(denom float64) float64 {
	if !(denom > 0) {
		return 0
	}
	p := t.HTProportion(denom)
	pq := p * (1 - p)
	if pq <= 0 {
		neff := t.KishNeff()
		if neff > denom {
			neff = denom
		}
		return neff
	}
	v := pq/denom + t.HitVar/(denom*denom)
	return pq / v
}
