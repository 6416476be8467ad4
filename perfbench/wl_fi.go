package main

import (
	"fmt"
	"time"

	"trident/internal/fault"
	"trident/internal/telemetry"
)

// fiTrials is the paper's per-kernel sample count.
const fiTrials = 3000

// fiBench is the fi-paper workload: trident.Campaign with 3000 trials
// and two workers on each paper kernel in turn.
type fiBench struct {
	cfg     *config
	kernels []string
}

func setupFI(cfg *config) (bench, error) {
	b := &fiBench{cfg: cfg, kernels: paperKernels()}
	for _, k := range b.kernels {
		if _, ok := cfg.ref.FI[k]; !ok {
			return nil, fmt.Errorf("reference has no FI outcome for %s", k)
		}
	}
	return b, nil
}

func (b *fiBench) close() error { return nil }

// checkFI compares a campaign with its reference; every trial of a
// mismatching campaign counts as failed.
func (b *fiBench) checkFI(rep *report, k string, r fiResult) {
	want := b.cfg.ref.FI[k].Counts
	rep.check(r.trials == fiTrials && r.counts[fault.Errored.String()] == 0 && sameCounts(r.counts, want), fiTrials,
		"fi %s: %d trials %v, reference %v", k, r.trials, r.counts, want)
}

func (b *fiBench) run(rep *report) error {
	halves := map[string]float64{}
	ph := startPhase()
	items, cpu, err := timedRounds(b.cfg.seconds, b.kernels, func(k string) error {
		r, err := campaign(k, b.cfg.seed, fiTrials)
		if err != nil {
			return fmt.Errorf("campaign %s: %w", k, err)
		}
		b.checkFI(rep, k, r)
		halves[k] = r.ciHalf
		return nil
	})
	if err != nil {
		return err
	}
	ph.note(rep)
	var projCPU, proj, errs []float64
	for _, k := range b.kernels {
		projCPU = append(projCPU, ci01(medianDur(cpu[k]), halves[k]))
		proj = append(proj, ci01(medianDur(items[k]), halves[k]))
		errs = append(errs, 100*halves[k])
	}
	rep.set("cpu_s", "s", cpu.passS())
	rep.set("item_cpu_ms_geomean", "ms", cpu.geomeanMS())
	rep.set("ci01_cpu_s", "s", geomean(projCPU))
	rep.set("sdc_err_pts", "pts", mean(errs))
	rep.note("fi-paper: %d campaigns of %d trials over %d kernels; ci01 values are projections",
		items.samples(), fiTrials, len(b.kernels))
	items.noteMedians(rep)
	rep.set("wall_s", "s", items.passS())
	rep.set("kernel_ms_geomean", "ms", items.geomeanMS())
	rep.set("trials_per_s", "1/s", float64(len(b.kernels)*fiTrials)/items.passS())
	rep.set("ci01_s", "s", geomean(proj))
	return nil
}

func (b *fiBench) runTraced(rep *report, tr *tracer) error {
	start := time.Now()
	for _, k := range b.kernels {
		r, err := campaign(k, b.cfg.seed, fiTrials)
		if err != nil {
			return fmt.Errorf("campaign %s: %w", k, err)
		}
		b.checkFI(rep, k, r)
	}
	untraced := time.Since(start)

	reg := telemetry.NewRegistry()
	var traced time.Duration
	for _, k := range b.kernels {
		t := time.Now()
		root := tr.start("fi.campaign", k, -1)
		r, err := campaignTraced(tr, root, k, b.cfg.seed, fiTrials, 2, reg)
		tr.end(root)
		traced += time.Since(t)
		if err != nil {
			return fmt.Errorf("campaign %s: %w", k, err)
		}
		b.checkFI(rep, k, r)
	}

	// Parallel efficiency: the same campaigns on one worker, timed in a
	// tracer of their own so they stay out of the layer totals.
	serial := newTracer()
	for _, k := range b.kernels {
		root := serial.start("fi.campaign", k, -1)
		r, err := campaignTraced(serial, root, k, b.cfg.seed, fiTrials, 1, nil)
		serial.end(root)
		if err != nil {
			return fmt.Errorf("campaign %s: %w", k, err)
		}
		b.checkFI(rep, k, r)
	}
	serialSpans, err := serial.snapshot()
	if err != nil {
		return err
	}

	spans, err := finishTrace(rep, tr, b.cfg, untraced, traced)
	if err != nil {
		return err
	}
	l := totals(spans)
	rep.set("fault.new_ms", "ms", l.ms("fault.new"))
	rep.set("fault.campaign_ms", "ms", l.ms("fault.campaign"))
	for _, k := range b.kernels {
		rep.set("fault.campaign_ms."+k, "ms", l.itemMS("fault.campaign", k))
		rep.note("ledger %-12s setup (fault.New) %8.2f ms  trials %9.2f ms  (setup share %.2f%%)", k,
			l.itemMS("fault.new", k), l.itemMS("fault.campaign", k),
			100*l.itemMS("fault.new", k)/(l.itemMS("fault.new", k)+l.itemMS("fault.campaign", k)))
	}
	rep.set("fault.parallel_eff", "1", totals(serialSpans).ms("fault.campaign")/(2*l.ms("fault.campaign")))
	rep.set("interp.golden_ms", "ms", registryCount(reg, "fi.golden_us")/1000)
	for _, name := range []string{"interp.instrs", "fi.replay.saved_instrs", "interp.snapshot.resumes", "interp.pool.frame_misses"} {
		rep.set(name, "count", registryCount(reg, name))
	}
	for _, name := range []string{"interp.snapshot.restore_us", "fi.workers.busy_us"} {
		rep.set(name, "us", registryCount(reg, name))
	}
	for _, o := range fault.AllOutcomes {
		rep.set("fault.outcome."+o.String(), "count", registryCount(reg, "fi.outcome."+o.String()))
	}
	return nil
}
