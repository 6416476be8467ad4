package crosscheck

import (
	"context"
	"fmt"
	"math"

	"trident/internal/bitlive"
	"trident/internal/fault"
	"trident/internal/ir"
)

// This file is the statistical oracle for adaptive (Neyman-allocation)
// campaigns (internal/fault Options.Adaptive, ANALYSIS.md "Adaptive
// (Neyman) allocation"). Two properties need independent evidence:
//
//   - Plan soundness: a plan derived from a pilot phase is just a valid
//     static plan, so CheckStratifyUnbiased must pass over it —
//     DerivePilotPlan exposes the derivation for that sweep.
//
//   - Full-loop unbiasedness: the adaptive estimator folds pilot trials
//     (weight 1/q of the pilot plan — live strata at 1, provably-masked
//     slots at the floor) and plan-thinned main trials (weight 1/q of
//     the derived plan) where the plan itself depends on the pilot
//     outcomes. The Horvitz-Thompson argument still applies — the
//     thinning hash is independent of outcomes, so conditional
//     inclusion probabilities equal the plan's rates — and
//     CheckAdaptiveUnbiased verifies the end-to-end mean against the
//     exhaustive ground truth, plus budget accounting on every campaign
//     it runs.

// DerivePilotPlan runs one adaptive campaign and returns the main-phase
// plan its pilot derived, so callers can sweep the static stratified
// oracle over pilot-derived plans.
func DerivePilotPlan(build func() *ir.Module, cfg fault.AdaptiveConfig, seed uint64, n int) (bitlive.Plan, error) {
	inj, err := fault.New(build(), fault.Options{Seed: seed, Adaptive: &cfg})
	if err != nil {
		return bitlive.Plan{}, fmt.Errorf("crosscheck: adaptive injector: %w", err)
	}
	ar, err := inj.CampaignAdaptive(context.Background(), n)
	if err != nil {
		return bitlive.Plan{}, err
	}
	return ar.Plan, nil
}

// AdaptiveUnbiasedOptions bounds one adaptive unbiasedness sweep.
type AdaptiveUnbiasedOptions struct {
	// Config is the adaptive configuration under test (zero value: the
	// package defaults).
	Config fault.AdaptiveConfig
	// Seeds is how many independent adaptive campaigns to run (0: 40).
	Seeds int
	// N is the slot budget per campaign (0: 150).
	N int
	// MinCoverage is the minimum acceptable fraction of campaigns whose
	// weighted Wilson interval covers the ground truth (0: 0.85).
	MinCoverage float64
}

// CheckAdaptiveUnbiased compares the mean of many independent adaptive
// estimates — each with its own pilot-derived plan — against the
// exhaustive ground truth (4-sigma z-test) and checks weighted-CI
// coverage, exactly as CheckStratifyUnbiased does for static plans. It
// also enforces the pilot budget contract on every campaign: the pilot
// executes a non-empty subset of the configured prefix (the pilot plan
// thins provably-masked slots) and executed trials never exceed the
// slot budget.
func CheckAdaptiveUnbiased(name string, build func() *ir.Module, opts AdaptiveUnbiasedOptions) ([]Mismatch, float64, error) {
	seeds := opts.Seeds
	if seeds <= 0 {
		seeds = 40
	}
	n := opts.N
	if n <= 0 {
		n = 150
	}
	minCov := opts.MinCoverage
	if minCov <= 0 {
		minCov = 0.85
	}
	truthInj, err := fault.New(build(), fault.Options{Seed: 0xB17C0DE})
	if err != nil {
		return nil, 0, fmt.Errorf("crosscheck: ground-truth injector: %w", err)
	}
	truth, _, err := StratifyGroundTruth(truthInj)
	if err != nil {
		return nil, 0, err
	}

	var ms []Mismatch
	estimates := make([]float64, 0, seeds)
	covered := 0
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		cfg := opts.Config
		inj, err := fault.New(build(), fault.Options{Seed: seed, Adaptive: &cfg})
		if err != nil {
			return nil, truth, err
		}
		ar, err := inj.CampaignAdaptive(context.Background(), n)
		if err != nil {
			return nil, truth, err
		}
		if ar.ExecutedN() > n {
			ms = append(ms, Mismatch{
				Program: name,
				Check:   fmt.Sprintf("adaptive/budget[seed=%d]", seed),
				Got:     fmt.Sprintf("%d executed trials", ar.ExecutedN()),
				Want:    fmt.Sprintf("at most the %d-slot budget", n),
			})
		}
		if ar.PilotExecuted <= 0 || ar.PilotExecuted > ar.PilotSlots {
			ms = append(ms, Mismatch{
				Program: name,
				Check:   fmt.Sprintf("adaptive/pilot[seed=%d]", seed),
				Got:     fmt.Sprintf("%d pilot trials", ar.PilotExecuted),
				Want:    fmt.Sprintf("a non-empty subset of the %d-slot pilot prefix", ar.PilotSlots),
			})
		}
		est := ar.WeightedSDC()
		estimates = append(estimates, est)
		if math.Abs(est-truth) <= ar.WeightedErrorBar95() {
			covered++
		}
	}
	mean, sd := 0.0, 0.0
	for _, e := range estimates {
		mean += e
	}
	mean /= float64(len(estimates))
	for _, e := range estimates {
		sd += (e - mean) * (e - mean)
	}
	sd = math.Sqrt(sd / float64(len(estimates)-1))

	se := sd / math.Sqrt(float64(len(estimates)))
	if se == 0 {
		se = 1e-12
	}
	if z := math.Abs(mean-truth) / se; z > 4 {
		ms = append(ms, Mismatch{
			Program: name,
			Check:   "adaptive/unbiased",
			Got:     fmt.Sprintf("mean %v over %d seeds (z=%.1f)", mean, len(estimates), z),
			Want:    fmt.Sprintf("exhaustive truth %v within 4 SE (%v)", truth, se),
		})
	}
	if cov := float64(covered) / float64(len(estimates)); cov < minCov {
		ms = append(ms, Mismatch{
			Program: name,
			Check:   "adaptive/ci-coverage",
			Got:     fmt.Sprintf("%d/%d intervals cover the truth (%.0f%%)", covered, len(estimates), cov*100),
			Want:    fmt.Sprintf("at least %.0f%% coverage of a nominal 95%% interval", minCov*100),
		})
	}
	return ms, truth, nil
}
