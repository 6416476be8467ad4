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
//	                 interrupted run (Ctrl-C, crash) resumes from them,
//	                 and a re-run of a finished campaign replays it from
//	                 its log without executing a trial
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
// FI trials resume from golden-run snapshots spaced
// fault.DefaultSnapshotInterval dynamic instructions apart, which gives
// the same outcomes as re-executing each trial in full; cmd/fi's
// -snapshot-interval is the knob for comparing the two.
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
	sig := fired()
	if err != nil && !errors.Is(err, errReported) {
		if sig != nil && errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "experiments: cancelled; completed campaigns were reported (and checkpointed with -checkpoint-dir)")
			os.Exit(sigctx.ExitCode(sig))
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if sig != nil {
		os.Exit(sigctx.ExitCode(sig))
	}
	if err != nil {
		os.Exit(1)
	}
}

// errUsage reports a bad command line, already explained on stderr.
var errUsage = errors.New("usage error")

// errReported fails an otherwise successful run whose telemetry sinks
// failed a write, already printed on stderr.
var errReported = errors.New("telemetry write failed")

// formats maps each -format value to its table renderer.
var formats = map[string]func(*experiments.Table) string{
	"text": (*experiments.Table).Text,
	"md":   (*experiments.Table).Markdown,
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
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
	sinks, err := telemetry.OpenSinks("experiments", stderr, reg, *traceOut, *debugAddr)
	if err != nil {
		return err
	}
	// Metrics accumulate across every selected experiment; the snapshot
	// is written even when a run fails midway, so a cancelled run still
	// leaves its telemetry behind.
	defer func() {
		sinks.WriteMetrics(*metricsOut)
		if !sinks.Close() && err == nil {
			err = errReported
		}
	}()
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
		Metrics:       reg,
		Trace:         sinks.Trace,
		Progress:      onProgress,
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
