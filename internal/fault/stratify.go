// This file holds the estimator side of stratified (importance-sampled)
// campaigns over the live-bit space — the weighted result, the slot
// hash and the plan hashes; the campaign driver (driver.go) does the
// thinning. Stratification is the dynamic half of the BEC idea
// (ANALYSIS.md, "Stratified sampling over live bits"; DESIGN.md §5i for
// the pruning half). The bit-influence classifier (bitlive.ClassifyInfluence)
// assigns every injectable bit a stratum; a Plan assigns each stratum an
// inclusion probability. A stratified campaign draws the SAME n slots
// the unstratified campaign would (same seed, same sequential stream),
// then thins each slot by its stratum's rate with a deterministic
// per-slot hash: the executed trials are a bit-identical subset of the
// unstratified campaign's trials. Each executed trial carries the
// inverse-probability weight 1/q of its stratum, and estimates become
// Horvitz-Thompson sums over the drawn slots — exactly unbiased for any
// plan, with the variance bookkeeping done by stats.WeightedTally.
//
// Determinism contract: slot inclusion is a pure function of
// (seed, slot index, stratum rate) via a random-access hash, NOT a
// sequential stream — so checkpoint resume and replay see exactly the same subset without fast-forwarding any generator.

package fault

import (
	"fmt"

	"trident/internal/bitlive"
	"trident/internal/hashutil"
	"trident/internal/stats"
)

// stratSalt decorrelates the slot-inclusion hash from every other use
// of the campaign seed (the sampling stream, per-instruction streams).
const stratSalt = 0x9E3779B97F4A7C15

// slotU maps (seed, slot) to a uniform float in [0, 1) with a
// splitmix64-style finalizer. Random access per slot keeps inclusion
// independent of visit order.
func slotU(seed uint64, slot int) float64 {
	h := seed ^ (stratSalt * (uint64(slot) + 1))
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h>>11) * (1.0 / (1 << 53))
}

// StratifyHash returns the content address of the stratification in
// effect — the influence table's module hash folded with the plan hash
// (hashutil.Hex form) — or "" when Options.Stratify is nil. Checkpoint
// headers include it so estimates weighted under one plan are never
// mixed with another.
func (inj *Injector) StratifyHash() string {
	if inj.opts.Stratify == nil {
		return ""
	}
	return stratifyHash(inj.influence.ModuleHash(inj.module), *inj.opts.Stratify)
}

// stratifyHash folds a module's influence-table hash with a plan hash.
func stratifyHash(influence uint64, plan bitlive.Plan) string {
	return hashutil.Hex(hashutil.String(fmt.Sprintf("%x|%x", influence, plan.Hash())))
}

// pruneHash returns the content address of the bit-liveness report a
// pruned campaign runs under ("" when Options.PruneBits is off).
func (inj *Injector) pruneHash() string {
	if inj.prune == nil {
		return ""
	}
	return hashutil.Hex(inj.prune.ModuleHash(inj.module))
}

// StratifiedResult is a stratified campaign's outcome: the executed
// trials (a deterministic subset of the slots an unstratified campaign
// with the same seed would run) plus the weighting needed to estimate
// over the full slot population.
type StratifiedResult struct {
	// CampaignResult holds the executed trials only; its unweighted
	// rates describe the executed subset, not the population — use the
	// Weighted variants for campaign-level estimates.
	*CampaignResult
	// SlotN is the number of slots drawn before thinning: the n the
	// campaign was asked for.
	SlotN int
	// Plan is the stratification plan the campaign ran under.
	Plan bitlive.Plan
	// Weights and Strata align with Trials: Weights[i] is the inverse
	// inclusion probability 1/q of trial i's stratum.
	Weights []float64
	Strata  []bitlive.Stratum
	// SlotCounts counts the drawn slots per stratum, before thinning.
	SlotCounts [bitlive.NumStrata]int
}

// ExecutedN returns the number of trials that occupied execution slots
// after thinning (including pruned ones, which are free).
func (sr *StratifiedResult) ExecutedN() int { return len(sr.Trials) }

// Tally builds the weighted tally of one program outcome over the
// classified executed trials.
func (sr *StratifiedResult) Tally(o Outcome) stats.WeightedTally {
	var t stats.WeightedTally
	for i, tr := range sr.Trials {
		if tr.Outcome == Errored {
			continue
		}
		t.Add(sr.Weights[i], tr.Outcome == o)
	}
	return t
}

// classifiedSlots returns the Horvitz-Thompson denominator: the drawn
// slot count less the weighted share of Errored trials, mirroring how
// unstratified rates normalize over ClassifiedN.
func (sr *StratifiedResult) classifiedSlots() float64 {
	d := float64(sr.SlotN)
	for i, tr := range sr.Trials {
		if tr.Outcome == Errored {
			d -= sr.Weights[i]
		}
	}
	if d < 0 {
		d = 0
	}
	return d
}

// WeightedRate returns the Horvitz-Thompson estimate of a program
// outcome's rate over the full slot population. Rate(Errored) has no
// weighted meaning (engine failures are a property of the run, not the
// population); it returns the executed-subset rate.
func (sr *StratifiedResult) WeightedRate(o Outcome) float64 {
	if o == Errored {
		return sr.Rate(Errored)
	}
	return sr.Tally(o).HTProportion(sr.classifiedSlots())
}

// WeightedSDC returns the Horvitz-Thompson SDC probability estimate.
func (sr *StratifiedResult) WeightedSDC() float64 { return sr.WeightedRate(SDC) }

// EffectiveN returns the variance-matched effective sample size of the
// SDC estimate (stats.WeightedTally.HTEffectiveN): the trial count a
// uniform campaign would need to match the stratified estimate's
// variance. Under an all-ones plan it equals the classified slot count.
func (sr *StratifiedResult) EffectiveN() float64 {
	return sr.Tally(SDC).HTEffectiveN(sr.classifiedSlots())
}

// WeightedErrorBar95 returns the half-width of the 95% Wilson interval
// of the weighted SDC estimate at the variance-matched effective sample
// size — the stratified analogue of ErrorBar95.
func (sr *StratifiedResult) WeightedErrorBar95() float64 {
	t := sr.Tally(SDC)
	denom := sr.classifiedSlots()
	return stats.WeightedProportionCI95(t.HTProportion(denom), t.HTEffectiveN(denom))
}

// StratumSummary reports one stratum's share of a stratified campaign.
type StratumSummary struct {
	Stratum bitlive.Stratum
	// Rate is the plan's inclusion probability.
	Rate float64
	// Slots is how many drawn slots fell in the stratum; Executed how
	// many survived thinning.
	Slots, Executed int
}

// Summary returns the per-stratum breakdown in priority order (noise
// first), covering every stratum the plan names.
func (sr *StratifiedResult) Summary() []StratumSummary {
	var exec [bitlive.NumStrata]int
	for _, s := range sr.Strata {
		exec[s]++
	}
	out := make([]StratumSummary, 0, bitlive.NumStrata)
	for _, s := range bitlive.Strata() {
		out = append(out, StratumSummary{
			Stratum:  s,
			Rate:     sr.Plan.Rate(s),
			Slots:    sr.SlotCounts[int(s)],
			Executed: exec[int(s)],
		})
	}
	return out
}
