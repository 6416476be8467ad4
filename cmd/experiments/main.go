// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [flags]
//
//	-run string      comma-separated experiments to run:
//	                 table1,fig5,table2,fig6a,fig6b,fig7,fig8,fig9,inputs,
//	                 ablations,pruning,stratify,adaptive or "all"
//	                 (default "all")
//	-samples int     FI samples for overall SDC probabilities (default 3000)
//	-perinstr int    FI samples per static instruction (default 100)
//	-seed uint       deterministic seed (default 2018)
//	-programs string comma-separated benchmark subset (default: all 11)
//	-workers int     parallel FI workers (default 4)
//	-format string   "text" (default) or "md" (markdown tables)
//	-checkpoint-dir  directory for per-campaign JSONL checkpoints; an
//	                 interrupted run (Ctrl-C, crash) resumes from them
//	-snapshot-interval int
//	                 dynamic instructions between golden-run snapshots that
//	                 FI trials resume from; 0 disables snapshot replay and
//	                 re-executes every trial from instruction zero
//	                 (default 2048)
//	-metrics-out string
//	                 write a JSON metrics snapshot here on exit
//	                 (see OBSERVABILITY.md)
//	-trace-out string
//	                 write a JSONL event trace here (program loads,
//	                 campaign spans, errored trials)
//	-debug-addr string
//	                 serve expvar and pprof on this HTTP address for the
//	                 run's lifetime (e.g. :6060)
//	-progress        render a live campaign progress line on stderr
//	                 (default true)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"trident/internal/experiments"
	"trident/internal/fault"
	"trident/internal/sigctx"
	"trident/internal/telemetry"
)

func main() {
	// Ctrl-C / SIGTERM cancels in-flight campaigns; with -checkpoint-dir
	// their completed trials survive for the next run to resume from.
	// The exit code distinguishes "cancelled with partial results"
	// (130/143, per signal) from "errored" (1).
	ctx, stop, fired := sigctx.WithSignals(context.Background())
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		if sig := fired(); sig != nil && errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "experiments: cancelled; completed campaigns were reported (and checkpointed with -checkpoint-dir)")
			os.Exit(sigctx.ExitCode(sig))
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if sig := fired(); sig != nil {
		os.Exit(sigctx.ExitCode(sig))
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	runList := fs.String("run", "all", "experiments to run (comma separated, or 'all')")
	samples := fs.Int("samples", 3000, "FI samples for overall SDC")
	perInstr := fs.Int("perinstr", 100, "FI samples per instruction")
	seed := fs.Uint64("seed", 2018, "deterministic seed")
	programs := fs.String("programs", "", "benchmark subset (comma separated)")
	workers := fs.Int("workers", 4, "parallel FI workers")
	format := fs.String("format", "text", "output format: text or md")
	checkpointDir := fs.String("checkpoint-dir", "", "directory for per-campaign JSONL checkpoints; an interrupted run resumes from them")
	cacheDir := fs.String("cache-dir", "", "content-addressed per-function campaign profile cache; re-runs re-inject only edited functions (takes precedence over -checkpoint-dir)")
	snapInterval := fs.Int("snapshot-interval", 2048, "dynamic instructions between golden-run snapshots that FI trials resume from (0 = full re-execution)")
	metricsOut := fs.String("metrics-out", "", "write a JSON metrics snapshot here on exit (see OBSERVABILITY.md)")
	traceOut := fs.String("trace-out", "", "write a JSONL event trace here (program loads, campaign spans, errored trials)")
	debugAddr := fs.String("debug-addr", "", "serve expvar and pprof on this HTTP address (e.g. :6060) for the run's lifetime")
	progress := fs.Bool("progress", true, "render a live campaign progress line on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	md := *format == "md"

	reg := telemetry.Default
	var trace *telemetry.Trace
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer tf.Close()
		trace = telemetry.NewTrace(tf)
	}
	if *debugAddr != "" {
		dbg, err := telemetry.ServeDebug(*debugAddr, reg)
		if err != nil {
			return err
		}
		// Graceful: an in-flight pprof scrape gets a second to finish.
		defer dbg.Shutdown(time.Second)
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/vars\n", dbg.Addr())
	}
	// Metrics accumulate across every selected experiment; the snapshot
	// is written even when a run fails midway, so a cancelled run still
	// leaves its telemetry behind.
	if *metricsOut != "" {
		defer func() {
			if werr := writeMetrics(reg, *metricsOut); werr != nil {
				fmt.Fprintln(os.Stderr, "experiments: writing metrics:", werr)
			} else {
				fmt.Fprintf(os.Stderr, "metrics written to %s\n", *metricsOut)
			}
		}()
	}
	// Experiments run campaigns sequentially, so a single meter renders
	// whichever campaign is currently active.
	var meter *telemetry.ProgressMeter
	var onProgress func(fault.Progress)
	if *progress {
		meter = telemetry.NewProgressMeter(os.Stderr, 0)
		onProgress = func(p fault.Progress) {
			meter.Update(p.String)
			if p.Done == p.Total {
				meter.Done()
			}
		}
	}

	if *checkpointDir != "" {
		if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
			return err
		}
	}
	cfg := experiments.Config{
		Samples:       *samples,
		PerInstr:      *perInstr,
		Seed:          *seed,
		Workers:       *workers,
		Context:       ctx,
		CheckpointDir: *checkpointDir,
		CacheDir:      *cacheDir,
		// Config's convention: negative disables the snapshot engine.
		SnapshotInterval: *snapInterval,
		Metrics:          reg,
		Trace:            trace,
		Progress:         onProgress,
	}
	if *snapInterval == 0 {
		cfg.SnapshotInterval = -1
	}
	if *programs != "" {
		cfg.Programs = strings.Split(*programs, ",")
	}

	selected := map[string]bool{}
	if *runList == "all" {
		for _, n := range []string{"table1", "fig5", "table2", "fig6a", "fig6b",
			"fig7", "fig8", "fig9", "inputs", "ablations", "pruning", "stratify", "adaptive"} {
			selected[n] = true
		}
	} else {
		for _, n := range strings.Split(*runList, ",") {
			selected[strings.TrimSpace(n)] = true
		}
	}

	w := os.Stdout
	stamp := func(name string, start time.Time) {
		fmt.Fprintf(w, "[%s completed in %.1fs]\n", name, time.Since(start).Seconds())
		experiments.RenderSeparator(w)
	}

	if selected["table1"] {
		start := time.Now()
		rows, err := experiments.Table1(cfg)
		if err != nil {
			return err
		}
		if md {
			experiments.MarkdownTable1(w, rows)
		} else {
			experiments.RenderTable1(w, rows)
		}
		stamp("table1", start)
	}
	if selected["fig5"] {
		start := time.Now()
		res, err := experiments.Fig5(cfg)
		if err != nil {
			return err
		}
		if md {
			experiments.MarkdownFig5(w, res)
		} else {
			experiments.RenderFig5(w, res)
		}
		stamp("fig5", start)
	}
	if selected["table2"] {
		start := time.Now()
		res, err := experiments.Table2(cfg)
		if err != nil {
			return err
		}
		if md {
			experiments.MarkdownTable2(w, res)
		} else {
			experiments.RenderTable2(w, res)
		}
		stamp("table2", start)
	}
	if selected["fig6a"] && selected["fig6b"] && md {
		start := time.Now()
		a, err := experiments.Fig6a(cfg, nil)
		if err != nil {
			return err
		}
		b, err := experiments.Fig6b(cfg, nil)
		if err != nil {
			return err
		}
		experiments.MarkdownFig6(w, a, b)
		stamp("fig6", start)
	} else {
		if selected["fig6a"] {
			start := time.Now()
			points, err := experiments.Fig6a(cfg, nil)
			if err != nil {
				return err
			}
			experiments.RenderFig6a(w, points)
			stamp("fig6a", start)
		}
		if selected["fig6b"] {
			start := time.Now()
			points, err := experiments.Fig6b(cfg, nil)
			if err != nil {
				return err
			}
			experiments.RenderFig6b(w, points)
			stamp("fig6b", start)
		}
	}
	if selected["fig7"] {
		start := time.Now()
		rows, err := experiments.Fig7(cfg)
		if err != nil {
			return err
		}
		if md {
			experiments.MarkdownFig7(w, rows)
		} else {
			experiments.RenderFig7(w, rows)
		}
		stamp("fig7", start)
	}
	if selected["fig8"] {
		start := time.Now()
		res, err := experiments.Fig8(cfg)
		if err != nil {
			return err
		}
		if md {
			experiments.MarkdownFig8(w, res)
		} else {
			experiments.RenderFig8(w, res)
		}
		stamp("fig8", start)
	}
	if selected["fig9"] {
		start := time.Now()
		res, err := experiments.Fig9(cfg)
		if err != nil {
			return err
		}
		if md {
			experiments.MarkdownFig9(w, res)
		} else {
			experiments.RenderFig9(w, res)
		}
		stamp("fig9", start)
	}
	if selected["inputs"] {
		start := time.Now()
		rows, err := experiments.InputSensitivity(cfg, 3)
		if err != nil {
			return err
		}
		if md {
			experiments.MarkdownInputs(w, rows)
		} else {
			experiments.RenderInputs(w, rows)
		}
		stamp("inputs", start)
	}
	if selected["ablations"] {
		start := time.Now()
		if err := runAblations(cfg); err != nil {
			return err
		}
		stamp("ablations", start)
	}
	if selected["pruning"] {
		start := time.Now()
		rows, err := experiments.Pruning(cfg)
		if err != nil {
			return err
		}
		if md {
			experiments.MarkdownPruning(w, rows)
		} else {
			experiments.RenderPruning(w, rows)
		}
		stamp("pruning", start)
	}
	if selected["stratify"] {
		start := time.Now()
		rows, err := experiments.Stratify(cfg)
		if err != nil {
			return err
		}
		if md {
			experiments.MarkdownStratify(w, rows)
		} else {
			experiments.RenderStratify(w, rows)
		}
		stamp("stratify", start)
	}
	if selected["adaptive"] {
		start := time.Now()
		rows, err := experiments.Adaptive(cfg)
		if err != nil {
			return err
		}
		if md {
			experiments.MarkdownAdaptive(w, rows)
		} else {
			experiments.RenderAdaptive(w, rows)
		}
		stamp("adaptive", start)
	}
	return nil
}

// writeMetrics dumps a registry snapshot as indented JSON at path.
func writeMetrics(reg *telemetry.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runAblations(cfg experiments.Config) error {
	w := os.Stdout
	vp, err := experiments.AblationValueProfile(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ablation (fs value profile): MAE with %.2f%%, without %.2f%%\n",
		vp.MAEWith*100, vp.MAEWithout*100)

	pr, err := experiments.AblationPruning(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ablation (fm pruning): pruned %.3fs vs expanded %.3fs (%d dyn deps -> %d static edges, max divergence %.2e)\n",
		pr.PrunedSeconds, pr.ExpandedSeconds, pr.DynDeps, pr.StaticEdges, pr.MaxDivergence)

	fp, err := experiments.AblationFixpoint(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Fprint(w, "Ablation (fm fixpoint cap): ")
	for i, p := range fp {
		if i > 0 {
			fmt.Fprint(w, ", ")
		}
		fmt.Fprintf(w, "%d sweeps -> %.2f%%", p.MaxIters, p.MeanSDC*100)
	}
	fmt.Fprintln(w)

	kn, err := experiments.AblationKnapsack(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ablation (selection policy at 1/3 bound): knapsack %.2f%% SDC vs top-k %.2f%% SDC\n",
		kn.MeanSDCKnapsack*100, kn.MeanSDCTopK*100)
	return nil
}
