// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [flags]
//
//	-run string      comma-separated experiments to run, or "all"
//	                 (default "all"); -h lists the registered names,
//	                 which come from internal/experiments' Registry
//	-samples int     FI samples for overall SDC probabilities (default 3000)
//	-perinstr int    FI samples per static instruction (default 100)
//	-seed uint       deterministic seed (default 2018)
//	-programs string comma-separated benchmark subset (default: all 11)
//	-workers int     parallel FI workers (default 4)
//	-format string   "text" (default) or "md" (markdown tables)
//	-checkpoint-dir  directory for per-campaign JSONL checkpoints; an
//	                 interrupted run (Ctrl-C, crash) resumes from them
//	-cache-dir       content-addressed per-function campaign profile
//	                 cache; re-runs re-inject only edited functions
//	                 (takes precedence over -checkpoint-dir)
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
//
// An unknown -run name or -format value is a usage error (exit 2).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
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
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
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

// errUsage reports a bad command line, already explained on stderr.
var errUsage = errors.New("usage error")

// formats maps each -format value to its table renderer.
var formats = map[string]func(*experiments.Table) string{
	"text": (*experiments.Table).Text,
	"md":   (*experiments.Table).Markdown,
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	var known []string
	for _, e := range experiments.Registry {
		known = append(known, e.Name)
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runList := fs.String("run", "all", "experiments to run (comma separated, or 'all'): "+strings.Join(known, ","))
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
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	usage := func(msg string) error {
		fmt.Fprintln(stderr, "experiments:", msg)
		fs.Usage()
		return errUsage
	}
	render, ok := formats[*format]
	if !ok {
		return usage(fmt.Sprintf("unknown -format %q (want text or md)", *format))
	}
	var names []string
	if *runList != "all" {
		names = strings.Split(*runList, ",")
		for i, n := range names {
			names[i] = strings.TrimSpace(n)
			if !slices.Contains(known, names[i]) {
				return usage(fmt.Sprintf("unknown experiment %q (want all or one of %s)", names[i], strings.Join(known, ",")))
			}
		}
	}

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
		fmt.Fprintf(stderr, "debug server on http://%s/debug/vars\n", dbg.Addr())
	}
	// Metrics accumulate across every selected experiment; the snapshot
	// is written even when a run fails midway, so a cancelled run still
	// leaves its telemetry behind.
	if *metricsOut != "" {
		defer func() {
			if werr := writeMetrics(reg, *metricsOut); werr != nil {
				fmt.Fprintln(stderr, "experiments: writing metrics:", werr)
			} else {
				fmt.Fprintf(stderr, "metrics written to %s\n", *metricsOut)
			}
		}()
	}
	// Experiments run campaigns sequentially, so a single meter renders
	// whichever campaign is currently active.
	var meter *telemetry.ProgressMeter
	var onProgress func(fault.Progress)
	if *progress {
		meter = telemetry.NewProgressMeter(stderr, 0)
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

	for _, e := range experiments.Registry {
		if *runList != "all" && !slices.Contains(names, e.Name) {
			continue
		}
		start := time.Now()
		tables, err := e.Run(cfg)
		if err != nil {
			return err
		}
		var out strings.Builder
		for _, t := range tables {
			out.WriteString(render(t))
		}
		// The markdown stamp is a paragraph and the break a thematic
		// rule, so the ### table titles stay the only headings.
		stamp := fmt.Sprintf("[%s completed in %.1fs]", e.Name, time.Since(start).Seconds())
		if *format == "md" {
			fmt.Fprintf(&out, "%s\n\n---\n\n", stamp)
		} else {
			fmt.Fprintf(&out, "%s\n%s\n", stamp, strings.Repeat("-", 100))
		}
		if _, err := io.WriteString(stdout, out.String()); err != nil {
			return err
		}
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
