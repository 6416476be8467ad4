package main

// This file is the benchmark's only adapter onto the fault-injection
// half (trident.Campaign, internal/fault, internal/interp,
// internal/bitlive). It sets no engine option: every campaign runs on
// the default engine, so a change of default shows in the numbers
// without a benchmark edit, and collapsing the campaign drivers touches
// only runSampled below.

import (
	"context"
	"fmt"

	"trident"
	"trident/internal/bitlive"
	"trident/internal/fault"
	"trident/internal/ir"
	"trident/internal/progs"
	"trident/internal/telemetry"
)

// facadeSnapshotInterval mirrors trident.Options' default snapshot
// interval, so direct fault campaigns cost what façade campaigns cost.
const facadeSnapshotInterval = 2048

// outcomeCounts tallies a campaign's trials by outcome name.
type outcomeCounts map[string]int

func countsOf(res *fault.CampaignResult) outcomeCounts {
	out := outcomeCounts{}
	for o, c := range res.Counts {
		if c > 0 {
			out[o.String()] = c
		}
	}
	return out
}

// fiResult is one plain campaign as a user sees it.
type fiResult struct {
	trials int
	sdc    float64
	ciHalf float64
	counts outcomeCounts
}

// campaign is the untraced surface: trident.Campaign with Workers: 2.
// The façade reports rates, not counts; counts are recovered as
// rate × trials, which is exact when no trial errored. Errored trials
// shrink the rates' denominator, so their counts no longer match the
// reference and the check fails.
func campaign(kernel string, seed uint64, trials int) (fiResult, error) {
	rep, err := trident.Campaign(kernel, trident.Options{Seed: seed, Samples: trials, Workers: 2})
	if err != nil {
		return fiResult{}, err
	}
	out := fiResult{trials: rep.Trials, sdc: rep.SDC, ciHalf: rep.ErrorBar95, counts: outcomeCounts{}}
	for o, rate := range map[fault.Outcome]float64{
		fault.SDC: rep.SDC, fault.Crash: rep.Crash, fault.Hang: rep.Hang, fault.Benign: rep.Benign, fault.Detected: rep.Detected,
	} {
		if c := int(rate*float64(rep.Trials) + 0.5); c > 0 {
			out.counts[o.String()] = c
		}
	}
	return out, nil
}

// buildKernel builds a registry kernel's module.
func buildKernel(kernel string) (*ir.Module, error) {
	p, err := progs.ByName(kernel)
	if err != nil {
		return nil, err
	}
	return p.Build(), nil
}

// campaignTraced performs the same work as trident.Campaign, one layer
// call at a time, with reg collecting the fault and interp counters.
func campaignTraced(tr *tracer, parent int, kernel string, seed uint64, trials, workers int, reg *telemetry.Registry) (fiResult, error) {
	var (
		m   *ir.Module
		inj *fault.Injector
		res *fault.CampaignResult
		err error
	)
	tr.do("progs.build", kernel, parent, func() { m, err = buildKernel(kernel) })
	if err != nil {
		return fiResult{}, err
	}
	tr.do("fault.new", kernel, parent, func() {
		inj, err = fault.New(m, fault.Options{
			Seed: seed, Workers: workers, SnapshotInterval: facadeSnapshotInterval, Metrics: reg,
		})
	})
	if err != nil {
		return fiResult{}, err
	}
	tr.do("fault.campaign", kernel, parent, func() { res, err = inj.CampaignRandom(context.Background(), trials) })
	if err != nil {
		return fiResult{}, err
	}
	return fiResult{trials: res.N(), sdc: res.SDCProb(), ciHalf: res.ErrorBar95(), counts: countsOf(res)}, nil
}

// Sampled-campaign modes of the fi-sampled workload.
const (
	modePlain    = "plain"
	modePruned   = "pruned"
	modeStratify = "stratified"
	modeAdaptive = "adaptive"
)

var sampledModes = []string{modePlain, modePruned, modeStratify, modeAdaptive}

// sampledResult is one sampled-mode campaign's outcome.
type sampledResult struct {
	// executed counts trials that ran: plain runs every slot, pruned
	// skips provably-masked ones, the stratified modes thin slots.
	executed int
	// counts tallies every recorded trial (pruned ones included).
	counts outcomeCounts
	// sdc is the reported SDC estimate (weighted for the stratified
	// modes) and ciHalf its reported 95% half-width (weighted Wilson).
	sdc, ciHalf, effN float64
	pilotFrac         float64
	maskedFrac        float64
	errored           int
}

// runSampled runs one fault campaign entry point for mode. Inside a
// trace it records fault.new and fault.campaign spans under parent.
func runSampled(tr *tracer, parent int, kernel, mode string, seed uint64, slots int, reg *telemetry.Registry) (sampledResult, error) {
	var (
		m   *ir.Module
		err error
	)
	id := kernel + "/" + mode
	tr.do("progs.build", id, parent, func() { m, err = buildKernel(kernel) })
	if err != nil {
		return sampledResult{}, err
	}
	opts := fault.Options{Seed: seed, Workers: 2, SnapshotInterval: facadeSnapshotInterval, Metrics: reg}
	switch mode {
	case modePlain:
	case modePruned:
		opts.PruneBits = true
	case modeStratify:
		plan := bitlive.DefaultPlan()
		opts.Stratify = &plan
	case modeAdaptive:
		opts.Adaptive = &fault.AdaptiveConfig{}
	default:
		return sampledResult{}, fmt.Errorf("unknown mode %q", mode)
	}
	var inj *fault.Injector
	tr.do("fault.new", id, parent, func() { inj, err = fault.New(m, opts) })
	if err != nil {
		return sampledResult{}, err
	}
	var out sampledResult
	h := tr.start("fault.campaign", id, parent)
	defer tr.end(h)
	ctx := context.Background()
	switch mode {
	case modePlain, modePruned:
		res, err := inj.CampaignRandom(ctx, slots)
		if err != nil {
			return out, err
		}
		out = sampledResult{
			executed: res.N() - res.PrunedN(), counts: countsOf(res),
			sdc: res.SDCProb(), ciHalf: res.ErrorBar95(), effN: float64(res.ClassifiedN()),
			maskedFrac: inj.PrunedFraction(), errored: res.Counts[fault.Errored],
		}
	case modeStratify:
		res, err := inj.CampaignStratified(ctx, slots)
		if err != nil {
			return out, err
		}
		out = stratifiedOf(res)
	case modeAdaptive:
		res, err := inj.CampaignAdaptive(ctx, slots)
		if err != nil {
			return out, err
		}
		out = stratifiedOf(res.StratifiedResult)
		out.pilotFrac = res.PilotFraction()
	}
	return out, nil
}

func stratifiedOf(res *fault.StratifiedResult) sampledResult {
	return sampledResult{
		executed: res.ExecutedN(), counts: countsOf(res.CampaignResult),
		sdc: res.WeightedSDC(), ciHalf: res.WeightedErrorBar95(), effN: res.EffectiveN(),
		errored: res.Counts[fault.Errored],
	}
}

// bitliveProbes times the static bit-liveness analysis and the influence
// classification that fault.New runs for the pruned and stratified
// modes, as side-probe spans.
func bitliveProbes(tr *tracer, kernel string) error {
	m, err := buildKernel(kernel)
	if err != nil {
		return err
	}
	var rep *bitlive.Report
	tr.do("bitlive.analyze", kernel, -1, func() { rep = bitlive.Analyze(m) })
	tr.do("bitlive.classify", kernel, -1, func() { bitlive.ClassifyInfluence(m, rep) })
	return nil
}

// registryCount reads a counter, or a histogram's sum, from reg.
func registryCount(reg *telemetry.Registry, name string) float64 {
	snap := reg.Snapshot()
	if v, ok := snap.Counters[name]; ok {
		return float64(v)
	}
	if h, ok := snap.Histograms[name]; ok {
		return float64(h.Sum)
	}
	return 0
}
