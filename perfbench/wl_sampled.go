package main

import (
	"fmt"
	"strings"
	"time"

	"trident/internal/telemetry"
)

// sampledKernels are the fi-sampled workload's kernels: three
// narrow-output, heavily masked kernels and one mid-masked paper kernel.
var sampledKernels = []string{"rgb2gray", "nibblepack", "boxblur", "hotspot"}

// sampledSlots is the slot budget of every fi-sampled campaign.
const sampledSlots = 3000

// sampledBench is the fi-sampled workload: each kernel in four modes
// (plain, pruned, stratified under the default plan, adaptive), through
// the fault campaign entry points with two workers.
type sampledBench struct {
	cfg *config
}

func setupSampled(cfg *config) (bench, error) {
	for _, k := range sampledKernels {
		for _, mode := range sampledModes {
			if _, ok := cfg.ref.Sampled[k+"/"+mode]; !ok {
				return nil, fmt.Errorf("reference has no %s/%s campaign", k, mode)
			}
		}
	}
	return &sampledBench{cfg: cfg}, nil
}

func (b *sampledBench) close() error { return nil }

// itemIDs lists every kernel×mode item.
func itemIDs() []string {
	var ids []string
	for _, k := range sampledKernels {
		for _, mode := range sampledModes {
			ids = append(ids, k+"/"+mode)
		}
	}
	return ids
}

// campaign runs one kernel×mode item and checks it against the
// reference; a pruned campaign must also tally exactly like the plain
// one.
func (b *sampledBench) campaign(rep *report, tr *tracer, reg *telemetry.Registry, id string) (sampledResult, error) {
	k, mode, _ := strings.Cut(id, "/")
	root := tr.start("fi.sampled", id, -1)
	r, err := runSampled(tr, root, k, mode, b.cfg.seed, sampledSlots, reg)
	tr.end(root)
	if err != nil {
		return r, fmt.Errorf("%s: %w", id, err)
	}
	want := b.cfg.ref.Sampled[id]
	ok := r.errored == 0 && r.executed == want.Executed && r.sdc == want.SDC && sameCounts(r.counts, want.Counts)
	if mode == modePruned {
		ok = ok && sameCounts(r.counts, b.cfg.ref.Sampled[k+"/"+modePlain].Counts)
	}
	rep.check(ok, r.executed, "%s: executed %d sdc %v %v, reference %d %v %v",
		id, r.executed, r.sdc, r.counts, want.Executed, want.SDC, want.Counts)
	return r, nil
}

func (b *sampledBench) run(rep *report) error {
	last := map[string]sampledResult{}
	ph := startPhase()
	items, cpu, err := timedRounds(b.cfg.seconds, itemIDs(), func(id string) error {
		r, err := b.campaign(rep, nil, nil, id)
		last[id] = r
		return err
	})
	if err != nil {
		return err
	}
	ph.note(rep)
	var (
		projCPU, proj, errs []float64
		executed            int
	)
	for id, r := range last {
		projCPU = append(projCPU, ci01(medianDur(cpu[id]), r.ciHalf))
		proj = append(proj, ci01(medianDur(items[id]), r.ciHalf))
		errs = append(errs, 100*r.ciHalf)
		executed += r.executed
	}
	rep.set("cpu_s", "s", cpu.passS())
	rep.set("item_cpu_ms_geomean", "ms", cpu.geomeanMS())
	rep.set("ci01_cpu_s", "s", geomean(projCPU))
	rep.set("sdc_err_pts", "pts", mean(errs))
	rep.note("fi-sampled: %d campaigns of %d slots over %d kernels × %d modes; ci01 values are projections",
		items.samples(), sampledSlots, len(sampledKernels), len(sampledModes))
	items.noteMedians(rep)
	rep.set("wall_s", "s", items.passS())
	rep.set("kernel_ms_geomean", "ms", items.geomeanMS())
	rep.set("trials_per_s", "1/s", float64(executed)/items.passS())
	rep.set("ci01_s", "s", geomean(proj))
	return nil
}

func (b *sampledBench) runTraced(rep *report, tr *tracer) error {
	start := time.Now()
	for _, id := range itemIDs() {
		if _, err := b.campaign(rep, nil, nil, id); err != nil {
			return err
		}
	}
	untraced := time.Since(start)

	reg := telemetry.NewRegistry()
	items := itemTimes{}
	res := map[string]sampledResult{}
	start = time.Now()
	for _, id := range itemIDs() {
		t := time.Now()
		r, err := b.campaign(rep, tr, reg, id)
		if err != nil {
			return err
		}
		items.add(id, time.Since(t))
		res[id] = r
	}
	traced := time.Since(start)
	for _, k := range sampledKernels {
		if err := bitliveProbes(tr, k); err != nil {
			return err
		}
	}

	spans, err := finishTrace(rep, tr, b.cfg, untraced, traced)
	if err != nil {
		return err
	}
	l := totals(spans)
	rep.set("fault.new_ms", "ms", l.ms("fault.new"))
	rep.set("fault.campaign_ms", "ms", l.ms("fault.campaign"))
	rep.set("bitlive.analyze_ms", "ms", l.ms("bitlive.analyze"))
	rep.set("bitlive.classify_ms", "ms", l.ms("bitlive.classify"))
	var pilot []float64
	for _, mode := range sampledModes {
		var (
			campaignMS, effN float64
			executed         int
			proj, halves     []float64
		)
		for _, k := range sampledKernels {
			id := k + "/" + mode
			r := res[id]
			campaignMS += l.itemMS("fault.campaign", id)
			executed += r.executed
			effN += r.effN
			halves = append(halves, r.ciHalf)
			proj = append(proj, ci01(medianDur(items[id]), r.ciHalf))
			if mode == modeAdaptive {
				pilot = append(pilot, r.pilotFrac)
			}
			rep.note("ledger %-18s setup (fault.New) %8.2f ms  trials %8.2f ms  executed %4d  ci_half %.5f",
				id, l.itemMS("fault.new", id), l.itemMS("fault.campaign", id), r.executed, r.ciHalf)
		}
		rep.set("fault.campaign_ms."+mode, "ms", campaignMS)
		rep.set("ci01_proj_s."+mode, "s", geomean(proj))
		rep.set("fault.executed."+mode, "count", float64(executed))
		rep.set("fault.ci_half."+mode, "1", mean(halves))
		rep.set("fault.eff_n."+mode, "count", effN)
	}
	rep.set("fault.pilot_frac", "1", mean(pilot))
	for _, k := range sampledKernels {
		rep.set("bitlive.masked_pct."+k, "%", 100*res[k+"/"+modePruned].maskedFrac)
	}
	return nil
}
