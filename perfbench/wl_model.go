package main

import (
	"fmt"
	"math"
	"time"

	"trident/internal/progs"
)

// paperKernels returns the 11 Table I kernels in paper order.
func paperKernels() []string {
	var out []string
	for _, p := range progs.All() {
		out = append(out, p.Name)
	}
	return out
}

// modelBench is the model-paper workload: trident.Analyze on each paper
// kernel in turn, on one goroutine.
type modelBench struct {
	cfg     *config
	kernels []string
}

func setupModel(cfg *config) (bench, error) {
	b := &modelBench{cfg: cfg, kernels: paperKernels()}
	for _, k := range b.kernels {
		if _, ok := cfg.ref.Model[k]; !ok {
			return nil, fmt.Errorf("reference has no model SDC for %s", k)
		}
		if _, ok := cfg.ref.FI[k]; !ok {
			return nil, fmt.Errorf("reference has no FI SDC for %s", k)
		}
	}
	return b, nil
}

func (b *modelBench) close() error { return nil }

// predict runs one kernel's prediction and checks it.
func (b *modelBench) predict(rep *report, k string, sdcs map[string]float64) error {
	sdc, err := analyze(k, b.cfg.seed)
	if err != nil {
		return fmt.Errorf("analyze %s: %w", k, err)
	}
	want := b.cfg.ref.Model[k]
	rep.check(absDiff(sdc, want) <= modelTol, 1, "model %s: SDC %.9f, reference %.9f", k, sdc, want)
	sdcs[k] = sdc
	return nil
}

func (b *modelBench) run(rep *report) error {
	sdcs := map[string]float64{}
	ph := startPhase()
	items, cpu, err := timedRounds(b.cfg.seconds, b.kernels, func(k string) error { return b.predict(rep, k, sdcs) })
	if err != nil {
		return err
	}
	ph.note(rep)
	var errs []float64
	for _, k := range b.kernels {
		errs = append(errs, 100*absDiff(sdcs[k], b.cfg.ref.FI[k].SDC))
	}
	rep.set("cpu_s", "s", cpu.passS())
	rep.set("item_cpu_ms_geomean", "ms", cpu.geomeanMS())
	rep.set("ci01_cpu_s", "s", cpu.geomeanMS()/1000)
	rep.set("sdc_err_pts", "pts", mean(errs))
	rep.note("model-paper: %d predictions of %d kernels; model_mae_pct against the same variant's 3000-trial FI reference",
		items.samples(), len(b.kernels))
	items.noteMedians(rep)
	rep.set("wall_s", "s", items.passS())
	rep.set("kernel_ms_geomean", "ms", items.geomeanMS())
	rep.set("model_mae_pct", "pts", mean(errs))
	return nil
}

func (b *modelBench) runTraced(rep *report, tr *tracer) error {
	// The untraced pass first: its wall time is the base of the tracing
	// overhead, and its predictions come from a second fresh model.
	sdcs := map[string]float64{}
	start := time.Now()
	for _, k := range b.kernels {
		if err := b.predict(rep, k, sdcs); err != nil {
			return err
		}
	}
	untraced := time.Since(start)

	var (
		counts modelCounts
		maxDev float64
		traced time.Duration
	)
	for _, k := range b.kernels {
		t := time.Now()
		root := tr.start("model.analyze", k, -1)
		mt, err := analyzeTraced(tr, root, k, b.cfg.seed)
		tr.end(root)
		traced += time.Since(t)
		if err != nil {
			return fmt.Errorf("analyze %s: %w", k, err)
		}
		want := b.cfg.ref.Model[k]
		rep.check(absDiff(mt.sdc, want) <= modelTol, 1, "model %s (traced): SDC %.9f, reference %.9f", k, mt.sdc, want)
		maxDev = math.Max(maxDev, absDiff(mt.sdc, sdcs[k]))
		counts.dynInstrs += mt.counts.dynInstrs
		counts.dynMemDeps += mt.counts.dynMemDeps
		counts.staticMemEdges += mt.counts.staticMemEdges
		counts.fmIterations += mt.counts.fmIterations
		counts.targets += mt.counts.targets
		variantProbes(tr, k, mt.prof, b.cfg.seed)
	}
	spans, err := finishTrace(rep, tr, b.cfg, untraced, traced)
	if err != nil {
		return err
	}
	l := totals(spans)
	for _, name := range []string{"profile.collect", "core.new", "core.fm_solve", "core.overall", "core.instr", "core.fs_only", "core.fsfc"} {
		rep.set(name+"_ms", "ms", l.ms(name))
	}
	for _, k := range b.kernels {
		rep.set("core.overall_ms."+k, "ms", l.itemMS("core.overall", k))
		rep.note("ledger %-12s profile %8.2f ms  core %9.2f ms  (profile share %.2f%%)", k,
			l.itemMS("profile.collect", k), l.itemMS("core.new", k)+l.itemMS("core.fm_solve", k)+l.itemMS("core.overall", k)+l.itemMS("core.instr", k),
			100*l.itemMS("profile.collect", k)/l.itemMS("model.analyze", k))
	}
	rep.set("profile.dyn_instrs", "count", float64(counts.dynInstrs))
	rep.set("profile.dyn_mem_deps", "count", float64(counts.dynMemDeps))
	rep.set("profile.static_mem_edges", "count", float64(counts.staticMemEdges))
	rep.set("core.fm_iterations", "count", float64(counts.fmIterations))
	rep.set("core.targets", "count", float64(counts.targets))
	rep.set("core.sdc_max_dev", "1", maxDev)
	return nil
}

// finishTrace checks the spans reconcile, writes them out, and records
// the tracing overhead: traced pass wall time minus the untraced one.
func finishTrace(rep *report, tr *tracer, cfg *config, untraced, traced time.Duration) ([]span, error) {
	spans, err := tr.snapshot()
	if err != nil {
		return nil, err
	}
	gap, err := reconcile(spans)
	if err != nil {
		return nil, fmt.Errorf("layer reconciliation: %w", err)
	}
	path := fmt.Sprintf("%s/%s-seed%d.spans.jsonl", cfg.outDir, cfg.workload, cfg.variant)
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	rep.note("trace: %d spans written to %s; layers reconcile within %.0f%% + %v (largest gap %.2f%%)",
		len(spans), path, reconcileTol*100, reconcileSlack, gap*100)
	rep.set("trace.reconcile_gap_pct", "%", gap*100)
	rep.set("trace.overhead_s", "s", traced.Seconds()-untraced.Seconds())
	rep.note("trace: untraced pass %.3f s, traced pass %.3f s", untraced.Seconds(), traced.Seconds())
	return spans, nil
}
