// This file holds the configuration, hashes and result of adaptive
// (Neyman-allocation) stratified campaigns — the plan-choosing loop on
// top of the stratified estimator stack (stratify.go; ANALYSIS.md,
// "Adaptive (Neyman) allocation"); the campaign driver (driver.go) runs
// the phases. A campaign budget of n slots is split into a pilot prefix
// and a thinned main phase:
//
//	slots [0, pn)  — the pilot: thinned under the static default shape
//	                 (live strata at rate 1, the provably-masked stratum
//	                 at the rate floor — its zero-SDC verdict is the
//	                 liveness oracle's and needs no pilot trials), with
//	                 per-stratum SDC tallies accumulating;
//	slots [pn, n)  — the main phase: thinned by the plan NeymanPlan
//	                 derives from the pilot tallies, using the same
//	                 random-access slot hash stratified campaigns use.
//
// Pilot trials are not warm-up waste: they carry weight 1/q of the
// pilot plan (live trials at 1, floor-thinned masked trials at 1/floor)
// and fold into the final Horvitz-Thompson estimate alongside the
// reweighted main-phase trials, so every executed trial contributes and
// executed(pilot) + executed(main) <= n by construction.
//
// Determinism contract: the derived plan is a pure function of the pilot
// outcomes, which are themselves a pure function of (module, seed, n,
// pilot configuration) — no plan is ever persisted. Checkpoint resume
// (mid-pilot or mid-main) and replay-only reconstruction both
// re-derive it from the same records and land on byte-identical results.

package fault

import (
	"fmt"
	"math"

	"trident/internal/bitlive"
	"trident/internal/hashutil"
)

// DefaultPilotFraction is the share of the slot budget an adaptive
// campaign spends on the uniform pilot when AdaptiveConfig leaves it
// zero. A fifth of the budget gives every stratum enough pilot trials to
// expose percent-level SDC rates at paper-scale budgets while leaving
// most of the budget for the optimized main phase.
const DefaultPilotFraction = 0.2

// AdaptiveConfig tunes a two-phase adaptive campaign. The zero value
// selects the defaults.
type AdaptiveConfig struct {
	// PilotFraction is the share of the slot budget spent on the uniform
	// pilot, in (0, 1); 0 selects DefaultPilotFraction. The pilot prefix
	// is round(n·PilotFraction) slots, at least 1.
	PilotFraction float64
	// RateFloor is the lowest inclusion rate the derived plan may assign,
	// in (0, 1]; 0 selects bitlive.DefaultRateFloor.
	RateFloor float64
}

// withDefaults resolves zero fields to the package defaults.
func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.PilotFraction == 0 {
		c.PilotFraction = DefaultPilotFraction
	}
	if c.RateFloor == 0 {
		c.RateFloor = bitlive.DefaultRateFloor
	}
	return c
}

// Validate checks the configuration (after default resolution).
func (c AdaptiveConfig) Validate() error {
	d := c.withDefaults()
	if !(d.PilotFraction > 0) || d.PilotFraction >= 1 || math.IsNaN(d.PilotFraction) {
		return fmt.Errorf("fault: adaptive pilot fraction %v outside (0, 1)", d.PilotFraction)
	}
	if !(d.RateFloor > 0) || d.RateFloor > 1 || math.IsNaN(d.RateFloor) {
		return fmt.Errorf("fault: adaptive rate floor %v outside (0, 1]", d.RateFloor)
	}
	return nil
}

// pilotLen returns the pilot prefix length of an n-slot budget: at least
// one slot, never more than the whole budget.
func pilotLen(n int, frac float64) int {
	if n <= 0 {
		return 0
	}
	pn := int(float64(n)*frac + 0.5)
	if pn < 1 {
		pn = 1
	}
	if pn > n {
		pn = n
	}
	return pn
}

// AdaptiveHash returns the content address of the adaptive configuration
// in effect — influence table, pilot fraction and rate floor — or ""
// when Options.Adaptive is nil. The derived main-phase plan is a pure
// function of these plus the (header-checked) module, seed and n, so the
// hash fences checkpoints without persisting the plan itself.
func (inj *Injector) AdaptiveHash() string {
	if inj.opts.Adaptive == nil {
		return ""
	}
	return adaptiveHash(inj.influence.ModuleHash(inj.module), *inj.opts.Adaptive)
}

// adaptiveHash folds a module's influence-table hash with the resolved
// pilot fraction and rate floor.
func adaptiveHash(influence uint64, cfg AdaptiveConfig) string {
	c := cfg.withDefaults()
	return hashutil.Hex(hashutil.String(fmt.Sprintf("adaptive|%x|%x|%x",
		influence, math.Float64bits(c.PilotFraction), math.Float64bits(c.RateFloor))))
}

// AdaptiveResult is the campaign driver's result under any sampling
// design: the executed transcript with its Horvitz-Thompson weighting,
// plus the pilot bookkeeping of an adaptive campaign. For an adaptive
// campaign, pilot trials weigh 1/q of the pilot plan and main-phase
// trials 1/q of the derived plan; a stratified campaign weighs every
// trial under Options.Stratify; a plain one at 1, with no strata and
// zero pilot fields.
type AdaptiveResult struct {
	// StratifiedResult holds the combined executed trials over all SlotN
	// slots; Plan is the plan of the last phase that ran — for an
	// adaptive campaign the derived main-phase plan, or the pilot plan
	// when the campaign stopped before the pilot completed.
	*StratifiedResult
	// PilotSlots is the pilot prefix length pn; PilotExecuted is how many
	// of those slots actually executed — below PilotSlots even on a
	// completed pilot, since the pilot thins provably-masked slots at
	// the rate floor.
	PilotSlots    int
	PilotExecuted int
	// Pilot is the per-stratum evidence NeymanPlan derived the plan from
	// (zero when the pilot did not complete).
	Pilot [bitlive.NumStrata]bitlive.StratumPilot
}

// PilotFraction returns the pilot's share of the executed trials — the
// overhead the adaptive machinery spent buying its plan.
func (ar *AdaptiveResult) PilotFraction() float64 {
	if e := ar.ExecutedN(); e > 0 {
		return float64(ar.PilotExecuted) / float64(e)
	}
	return 0
}

// pilotPlan is the plan the pilot prefix runs under: the static default
// shape with the configured floor as the masked rate. The pilot's job
// is estimating live-stratum variance, and the provably-masked
// stratum's zero-SDC rate is the liveness oracle's verdict rather than
// anything a pilot could measure — so its pilot slots execute only at
// the floor cross-check rate the derived plan would assign them anyway,
// instead of burning pilot budget at rate 1.
func pilotPlan(cfg AdaptiveConfig) bitlive.Plan {
	return bitlive.MaskedRatePlan(cfg.RateFloor)
}
