package crosscheck

import (
	"context"
	"fmt"
	"math"

	"trident/internal/bitlive"
	"trident/internal/fault"
	"trident/internal/ir"
)

// This file is the statistical oracle for stratified live-bit sampling
// (internal/fault Options.Stratify, ANALYSIS.md "Stratified sampling
// over live bits"). The stratified contract has two halves, and each
// gets its own check:
//
//   - Determinism: a stratified campaign's executed trials are a
//     bit-identical, in-order subset of the trials the unstratified
//     campaign with the same seed runs, and every trial carries exactly
//     the inverse inclusion probability of its recorded stratum
//     (CheckStratifySubset).
//
//   - Unbiasedness: the Horvitz-Thompson weighted SDC estimate has the
//     exhaustively-enumerated population SDC probability as its mean,
//     and the weighted Wilson interval covers that truth at roughly its
//     nominal rate (CheckStratifyUnbiased, which computes the ground
//     truth by injecting every (instruction, instance, bit) of a small
//     module — the stratified analogue of the pruning BEC oracle).

// CheckStratifySubset runs the same campaign plain and stratified under
// plan and verifies the subset/weight contract. The two campaigns build
// separate module instances, so trials are matched by stable identity
// (position, instance, bit) like the pruning differential does.
func CheckStratifySubset(name string, build func() *ir.Module, plan bitlive.Plan, seed uint64, n int) ([]Mismatch, error) {
	plainInj, err := fault.New(build(), fault.Options{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("crosscheck: stratify plain injector: %w", err)
	}
	plain, err := plainInj.CampaignRandom(context.Background(), n)
	if err != nil {
		return nil, err
	}
	stratInj, err := fault.New(build(), fault.Options{Seed: seed, Stratify: &plan})
	if err != nil {
		return nil, fmt.Errorf("crosscheck: stratify injector: %w", err)
	}
	sres, err := stratInj.CampaignStratified(context.Background(), n)
	if err != nil {
		return nil, err
	}

	var ms []Mismatch
	mismatch := func(check, got, want string) {
		ms = append(ms, Mismatch{Program: name, Check: check, Got: got, Want: want})
	}
	if sres.SlotN != n || plain.N() != n {
		mismatch("stratify/slots", fmt.Sprintf("%d drawn of %d plain", sres.SlotN, plain.N()),
			fmt.Sprintf("%d", n))
		return ms, nil
	}
	// Greedy in-order matching: every executed trial must appear in the
	// plain transcript at or after the previous match, with the same
	// spec and the same outcome. Thinning may only delete slots, never
	// reorder, rewrite, or invent them.
	next := 0
	for i, tr := range sres.Trials {
		found := -1
		for j := next; j < len(plain.Trials); j++ {
			pt := plain.Trials[j]
			if pt.Instr.Pos() == tr.Instr.Pos() && pt.Instance == tr.Instance && pt.Bit == tr.Bit {
				found = j
				break
			}
		}
		if found < 0 {
			mismatch(fmt.Sprintf("stratify/subset[%d]", i),
				fmt.Sprintf("%s bit %d @%d not in plain tail", tr.Instr.Pos(), tr.Bit, tr.Instance),
				"in-order subset of the plain transcript")
			return ms, nil
		}
		if out := plain.Trials[found].Outcome; out != tr.Outcome {
			mismatch(fmt.Sprintf("stratify/outcome[%d]", i), tr.Outcome.String(), out.String())
		}
		if want := 1 / plan.Rate(sres.Strata[i]); sres.Weights[i] != want {
			mismatch(fmt.Sprintf("stratify/weight[%d]", i),
				fmt.Sprintf("%v", sres.Weights[i]), fmt.Sprintf("1/rate(%s)=%v", sres.Strata[i], want))
		}
		next = found + 1
	}
	slots := 0
	for _, sc := range sres.SlotCounts {
		slots += sc
	}
	if slots != n {
		mismatch("stratify/slot-counts", fmt.Sprintf("%d", slots), fmt.Sprintf("%d", n))
	}
	return ms, nil
}

// StratifyGroundTruth computes the exact population SDC probability of
// inj's campaign sampling distribution by enumerating it: every dynamic
// instance of every injectable instruction, every result bit, weighted
// exactly as CampaignRandom samples (uniform over activation draws,
// then uniform over the target's result width). Cost is the full
// bit-space, so callers must keep the module small. Returns the truth
// and the number of injections performed.
func StratifyGroundTruth(inj *fault.Injector) (float64, int, error) {
	ctx := context.Background()
	total := float64(inj.ActivationSpace())
	if total == 0 {
		return 0, 0, fmt.Errorf("crosscheck: empty activation space")
	}
	truth := 0.0
	trials := 0
	for _, in := range inj.Targets() {
		w := in.Type.Bits()
		pBit := 1 / (total * float64(w))
		for instance := uint64(1); instance <= inj.ExecCount(in); instance++ {
			for bit := 0; bit < w; bit++ {
				out, err := inj.Inject(ctx, in, instance, bit)
				trials++
				if err != nil {
					return 0, trials, fmt.Errorf("crosscheck: exhaustive inject %s bit %d @%d: %w",
						in.Pos(), bit, instance, err)
				}
				if out == fault.SDC {
					truth += pBit
				}
			}
		}
	}
	return truth, trials, nil
}

// StratifyUnbiasedOptions bounds one unbiasedness sweep.
type StratifyUnbiasedOptions struct {
	// Plan is the stratification under test (the aggressive plans are
	// the interesting ones — heavy thinning is where a weighting bug
	// would bias hardest).
	Plan bitlive.Plan
	// Seeds is how many independent stratified campaigns to run (0: 40).
	Seeds int
	// N is the slot count per campaign (0: 150).
	N int
	// MinCoverage is the minimum acceptable fraction of campaigns whose
	// weighted Wilson interval covers the ground truth (0: 0.85, below
	// the nominal 0.95 to absorb small-sample discreteness).
	MinCoverage float64
}

// CheckStratifyUnbiased compares the mean of many independent stratified
// estimates against the exhaustive ground truth (a z-test at 4 sigma —
// deterministic for fixed seeds, and a weighting bug of any practical
// size fails it by orders of magnitude) and checks weighted-CI coverage.
// It returns the mismatches plus the measured truth for the caller's
// logs.
func CheckStratifyUnbiased(name string, build func() *ir.Module, opts StratifyUnbiasedOptions) ([]Mismatch, float64, error) {
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

	estimates := make([]float64, 0, seeds)
	covered := 0
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		plan := opts.Plan
		inj, err := fault.New(build(), fault.Options{Seed: seed, Stratify: &plan})
		if err != nil {
			return nil, truth, err
		}
		sres, err := inj.CampaignStratified(context.Background(), n)
		if err != nil {
			return nil, truth, err
		}
		est := sres.WeightedSDC()
		estimates = append(estimates, est)
		if math.Abs(est-truth) <= sres.WeightedErrorBar95() {
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

	var ms []Mismatch
	// z-test on the mean: |mean - truth| must stay within 4 standard
	// errors. An unbiased estimator lands here with probability
	// 1 - 6e-5; a missing or doubled weight shifts the mean by whole
	// stratum masses and fails immediately.
	se := sd / math.Sqrt(float64(len(estimates)))
	if se == 0 {
		se = 1e-12
	}
	if z := math.Abs(mean-truth) / se; z > 4 {
		ms = append(ms, Mismatch{
			Program: name,
			Check:   "stratify/unbiased",
			Got:     fmt.Sprintf("mean %v over %d seeds (z=%.1f)", mean, len(estimates), z),
			Want:    fmt.Sprintf("exhaustive truth %v within 4 SE (%v)", truth, se),
		})
	}
	if cov := float64(covered) / float64(len(estimates)); cov < minCov {
		ms = append(ms, Mismatch{
			Program: name,
			Check:   "stratify/ci-coverage",
			Got:     fmt.Sprintf("%d/%d intervals cover the truth (%.0f%%)", covered, len(estimates), cov*100),
			Want:    fmt.Sprintf("at least %.0f%% coverage of a nominal 95%% interval", minCov*100),
		})
	}
	return ms, truth, nil
}
