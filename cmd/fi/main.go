// Command fi runs an LLFI-style statistical fault-injection campaign:
// single bit flips in destination registers of random dynamic
// instructions, classified against the golden run.
//
// The campaign engine is resilient: engine failures classify individual
// trials as "errored" instead of aborting, Ctrl-C returns the completed
// prefix of the campaign, and -checkpoint/-resume persist completed
// trials to a JSONL log so an interrupted campaign picks up where it
// left off.
//
// Observability (see OBSERVABILITY.md): a live progress line is drawn
// on stderr while the campaign runs (-progress=false disables it),
// -metrics-out writes a metrics snapshot whose outcome counters
// reconcile exactly with the printed campaign tallies, -trace-out
// records a JSONL event trace, and -debug-addr serves expvar and pprof
// over HTTP for poking at a long campaign from another terminal. A
// failed metrics or trace write is printed and does not stop the
// campaign, but a run that would have exited 0 exits 1.
//
// Usage:
//
//	fi -program pathfinder [-n 3000] [-seed 1] [-workers 4] [-per-instr]
//	   [-snapshot-interval 0] [-prune-bits]
//	   [-checkpoint trials.jsonl] [-resume] [-retries 2] [-trial-timeout 30s]
//	   [-metrics-out metrics.json] [-trace-out trace.jsonl] [-debug-addr :6060]
//	fi -ir file.tir [...]
//	fi -remote http://localhost:8344 -program pathfinder [-shards 4]
//	   [-detach | -job job-xxxx] [-trials-out trials.jsonl]
//
// Flags become one server.SubmitRequest before the mode split: a local
// run takes its fault.Options from the request's FaultOptions, exactly
// as a fiserver job does, and -remote submits the same request. Both
// modes print the same progress line (fault.Progress) and the same
// outcome block and SDC probability line. With -remote, -shards
// multiplies -workers: the server runs the job as one campaign with
// shards × workers concurrent trials, and the result is the same at any
// shard count. -trial-timeout travels as whole milliseconds, so fi
// refuses any other value in either mode.
//
// Trials resume from golden-run snapshots taken every -snapshot-interval
// dynamic instructions: 0 selects the default
// (fault.DefaultSnapshotInterval) and -1 re-executes every trial in full
// from instruction 0. Results are bit-identical either way.
//
// Exit codes follow the shell convention: 0 for a completed campaign,
// 1 for errors, and 128+signum (130 for SIGINT, 143 for SIGTERM) when
// a signal cancelled the campaign — partial results were reported, but
// distinguishably from both success and failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"trident/internal/fault"
	"trident/internal/ir"
	"trident/internal/progs"
	"trident/internal/server"
	"trident/internal/sigctx"
	"trident/internal/stats"
	"trident/internal/telemetry"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fi:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) (code int, err error) {
	fs := flag.NewFlagSet("fi", flag.ContinueOnError)
	fs.SetOutput(stderr)
	program := fs.String("program", "", "built-in benchmark name")
	irFile := fs.String("ir", "", "textual IR file")
	n := fs.Int("n", 3000, "number of injections")
	seed := fs.Uint64("seed", 1, "deterministic seed")
	workers := fs.Int("workers", 4, "parallel injection workers")
	perInstr := fs.Bool("per-instr", false, "also report per-instruction SDC probabilities (uses -n per instruction / 10)")
	checkpoint := fs.String("checkpoint", "", "JSONL trial log: completed trials are persisted here and replayed on restart")
	resume := fs.Bool("resume", false, "require an existing checkpoint (refuse to start from scratch); implies -checkpoint")
	retries := fs.Int("retries", 1, "retry attempts for trials failing with transient engine errors")
	trialTimeout := fs.Duration("trial-timeout", 0, "per-trial wall-clock watchdog on top of the instruction budget, in whole milliseconds (0 = none)")
	snapInterval := fs.Int("snapshot-interval", 0, fmt.Sprintf("dynamic instructions between golden-run snapshots that trials resume from (0 = default %d, -1 = full re-execution)", fault.DefaultSnapshotInterval))
	pruneBits := fs.Bool("prune-bits", false, "skip injections into statically provably-masked bits, recording them benign without execution; results are bit-identical to an unpruned campaign (exact reweighting, see DESIGN.md §5i)")
	stratify := fs.Bool("stratify", false, "stratified live-bit importance sampling: thin low-influence strata (noise, masked bits) deterministically and reweight executed trials by inverse inclusion probability; the weighted estimates stay unbiased at a fraction of the executed trials (see ANALYSIS.md)")
	stratifyAdaptive := fs.Bool("stratify-adaptive", false, "two-phase adaptive (Neyman-allocation) stratified sampling: a static-shape pilot over the first ~20% of the slot budget (provably-masked slots thinned at the rate floor) estimates per-stratum SDC rates, the remaining slots are thinned under the derived plan, and pilot trials fold into the weighted estimate at the pilot plan's 1/q — executed trials never exceed -n (see ANALYSIS.md)")
	metricsOut := fs.String("metrics-out", "", "write a JSON metrics snapshot here on exit (see OBSERVABILITY.md)")
	traceOut := fs.String("trace-out", "", "write a JSONL event trace here (campaign spans, errored trials)")
	debugAddr := fs.String("debug-addr", "", "serve expvar and pprof on this HTTP address (e.g. :6060) for the campaign's lifetime")
	progress := fs.Bool("progress", true, "render a live campaign progress line on stderr")
	remote := fs.String("remote", "", "submit to a running fiserver at this base URL (e.g. http://localhost:8344) instead of running locally")
	jobID := fs.String("job", "", "with -remote: attach to this existing job instead of submitting a new one")
	detach := fs.Bool("detach", false, "with -remote: submit, print the job id, and exit without watching")
	shards := fs.Int("shards", 0, "with -remote: multiplies -workers; the server's campaign runs shards × workers trials at once, with the same result at any count (0 = server default)")
	trialsOut := fs.String("trials-out", "", "with -remote: write the result's per-trial records as JSONL here")
	dumpIR := fs.Bool("dump-ir", false, "print the selected module's canonical IR to stdout and exit (for scripted edits fed back through -ir)")
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	var irText string
	if *irFile != "" {
		src, err := os.ReadFile(*irFile)
		if err != nil {
			return 1, err
		}
		irText = string(src)
	}
	if *dumpIR {
		m, err := progs.Load(*program, irText)
		if err != nil {
			return 1, err
		}
		fmt.Fprint(stdout, ir.Print(m))
		return 0, nil
	}
	if *resume && *checkpoint == "" {
		return 1, fmt.Errorf("-resume requires -checkpoint")
	}
	if *stratify && *perInstr {
		return 1, fmt.Errorf("-stratify is incompatible with -per-instr")
	}
	if *stratifyAdaptive && *perInstr {
		return 1, fmt.Errorf("-stratify-adaptive is incompatible with -per-instr")
	}
	if *trialTimeout%time.Millisecond != 0 {
		return 1, fmt.Errorf("-trial-timeout %v is not a whole number of milliseconds", *trialTimeout)
	}
	// The campaign a local run executes and -remote submits.
	req := &server.SubmitRequest{
		Program:          *program,
		IR:               irText,
		N:                *n,
		Seed:             *seed,
		Workers:          *workers,
		SnapshotInterval: *snapInterval,
		MaxRetries:       *retries,
		TrialTimeoutMS:   trialTimeout.Milliseconds(),
		PruneBits:        *pruneBits,
		Stratify:         *stratify,
		StratifyAdaptive: *stratifyAdaptive,
	}

	// Ctrl-C / SIGTERM cancels the campaign gracefully: in-flight trials
	// are abandoned, completed ones are reported (and checkpointed), and
	// the exit code records which signal it was (130/143).
	ctx, stop, fired := sigctx.WithSignals(context.Background())
	defer stop()

	if *remote != "" {
		if *perInstr {
			return 1, fmt.Errorf("-per-instr is not supported with -remote")
		}
		req.Shards = *shards
		return runRemote(ctx, fired, stdout, stderr, remoteOpts{
			base:      *remote,
			jobID:     *jobID,
			detach:    *detach,
			trialsOut: *trialsOut,
			progress:  *progress,
			req:       req,
		})
	}

	reg := telemetry.Default
	sinks, err := telemetry.OpenSinks("fi", stderr, reg, *traceOut, *debugAddr)
	if err != nil {
		return 1, err
	}
	defer func() {
		if !sinks.Close() && code == 0 {
			code = 1
		}
	}()

	m, err := req.BuildModule()
	if err != nil {
		return 1, err
	}
	opts := req.FaultOptions()
	opts.Metrics = reg
	opts.Trace = sinks.Trace
	// The progress meter and the campaign share stderr; the meter's
	// final line is flushed before any summary printing below.
	var meter *telemetry.ProgressMeter
	if *progress {
		meter = telemetry.NewProgressMeter(stderr, 0)
		opts.OnProgress = func(p fault.Progress) { meter.Update(p.String) }
	}
	inj, err := fault.New(m, opts)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "golden run: %d dynamic instructions, activation space %d\n",
		inj.GoldenDynInstrs(), inj.ActivationSpace())
	if *pruneBits {
		fmt.Fprintf(stdout, "bit-liveness pruning: %.1f%% of activation-weighted bits provably masked\n",
			inj.PrunedFraction()*100)
	}

	start := time.Now()
	// One call serves every sampling mode the options select; -resume
	// adds the "refuse to start from scratch" contract to the checkpoint.
	ares, err := inj.Campaign(ctx, *n, fault.Run{Checkpoint: *checkpoint, Resume: *resume})
	meter.Final()
	cancelled := errors.Is(err, context.Canceled)
	if err != nil && !cancelled {
		return 1, err
	}

	// Snapshot metrics now, before any -per-instr extra campaigns run,
	// so the fi.outcome.* counters reconcile exactly with the campaign
	// tallies printed below.
	sinks.WriteMetrics(*metricsOut)

	printReplay(stdout, inj, reg)
	res := ares.CampaignResult
	if cancelled {
		fmt.Fprintf(stdout, "\ncampaign cancelled after %.1fs: reporting the %d completed trials (of %d requested)\n",
			time.Since(start).Seconds(), res.N(), *n)
		if *checkpoint != "" {
			fmt.Fprintf(stdout, "completed trials are checkpointed in %s; rerun with -resume to finish\n", *checkpoint)
		}
	}
	fmt.Fprintf(stdout, "\n%d injections into %s:\n", res.N(), m.Name)
	tally := fault.Progress{Done: res.N(), Total: res.N()}
	for o, c := range res.Counts {
		tally.Counts[o] = c
	}
	printSummary(stdout, tally, res.PrunedN())
	if *stratify || *stratifyAdaptive {
		if *stratifyAdaptive {
			fmt.Fprintf(stdout, "\nadaptive stratified sampling (pilot %d of %d slots, derived plan %s):\n",
				ares.PilotExecuted, ares.PilotSlots, ares.Plan)
		} else {
			fmt.Fprintf(stdout, "\nstratified sampling (plan %s):\n", ares.Plan)
		}
		printStratumTable(stdout, ares.StratifiedResult)
		fmt.Fprintf(stdout, "  %d of %d drawn slots executed\n", ares.ExecutedN(), *n)
		if *stratifyAdaptive && ares.ExecutedN() > 0 {
			fmt.Fprintf(stdout, "  pilot spent %.0f%% of the executed budget buying the plan\n",
				ares.PilotFraction()*100)
		}
		fmt.Fprintf(stdout, "weighted SDC probability: %.2f%% ± %.2f%% (95%% CI, effective n %.0f)\n",
			ares.WeightedSDC()*100, ares.WeightedErrorBar95()*100, ares.EffectiveN())
	}
	if len(res.Errs) > 0 {
		fmt.Fprintf(stdout, "\n%d trial(s) errored (engine failures, excluded from rates); first few:\n", len(res.Errs))
		for i, te := range res.Errs {
			if i == 5 {
				fmt.Fprintf(stdout, "  ... and %d more\n", len(res.Errs)-i)
				break
			}
			fmt.Fprintf(stdout, "  %v\n", &te)
		}
	}
	if cancelled {
		// Partial results were reported; the exit code says which signal
		// cut the campaign short (130 for SIGINT, 143 for SIGTERM).
		return sigctx.ExitCode(fired()), nil
	}

	if *perInstr {
		perN := *n / 10
		if perN < 10 {
			perN = 10
		}
		targets := inj.Targets()
		measured, err := inj.PerInstrSDC(ctx, targets, perN)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(stdout, "\nper-instruction campaign cancelled\n")
			return sigctx.ExitCode(fired()), nil
		}
		if err != nil {
			return 1, err
		}
		sort.Slice(targets, func(i, j int) bool {
			if measured[targets[i]] != measured[targets[j]] {
				return measured[targets[i]] > measured[targets[j]]
			}
			return targets[i].ID < targets[j].ID
		})
		fmt.Fprintf(stdout, "\nper-instruction SDC probabilities (%d injections each):\n", perN)
		fmt.Fprintf(stdout, "%-32s %-24s %10s\n", "instruction", "location", "SDC")
		for _, in := range targets {
			fmt.Fprintf(stdout, "%-32s %-24s %9.1f%%\n", ir.FormatInstr(in), in.Pos(), measured[in]*100)
		}
	}
	return 0, nil
}

// printSummary prints the outcome block and the SDC probability line
// that local and remote runs share, from the campaign's tallies: every
// outcome in fault.AllOutcomes order with its rate normalised as
// fault.Progress.Rate does (program outcomes over classified trials,
// Errored over all trials), Errored left out when no trial errored. A
// local run passes the number of statically pruned benign trials, which
// the wire result does not carry; a nonzero count prints its own line.
func printSummary(w io.Writer, t fault.Progress, pruned int) {
	for _, o := range fault.AllOutcomes {
		if o == fault.Errored && t.Counts[o] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-9s %6d  (%.2f%%)\n", o, t.Counts[o], t.Rate(o)*100)
	}
	if pruned > 0 {
		fmt.Fprintf(w, "  %d of the benign trials were pruned statically (no execution)\n", pruned)
	}
	sdc := t.Rate(fault.SDC)
	fmt.Fprintf(w, "SDC probability: %.2f%% ± %.2f%% (95%% CI)\n",
		sdc*100, stats.ProportionCI95(sdc, t.Done-t.Counts[fault.Errored])*100)
}

// printStratumTable renders the per-stratum breakdown in stratum
// priority order (fixed, so two runs of the same campaign are
// byte-comparable). Strata that drew no slots — typically because the
// module has no bits in them — render as explicit dash rows rather than
// disappearing, so a five-row table always has five rows.
func printStratumTable(w io.Writer, sres *fault.StratifiedResult) {
	fmt.Fprintf(w, "  %-9s %6s %9s %9s\n", "stratum", "rate", "slots", "executed")
	for _, ss := range sres.Summary() {
		if ss.Slots == 0 && ss.Executed == 0 {
			fmt.Fprintf(w, "  %-9s %6.2f %9s %9s\n", ss.Stratum, ss.Rate, "-", "-")
			continue
		}
		fmt.Fprintf(w, "  %-9s %6.2f %9d %9d\n", ss.Stratum, ss.Rate, ss.Slots, ss.Executed)
	}
}

// printReplay prints the snapshot-replay summary line after a campaign:
// the golden snapshots trials resumed from, and how many of the trials
// this process executed stopped early on rejoining the golden run.
func printReplay(w io.Writer, inj *fault.Injector, reg *telemetry.Registry) {
	if inj.SnapshotInterval() < 0 {
		return
	}
	fmt.Fprintf(w, "snapshot replay: %d golden snapshots (interval %d); %d of %d executed trials rejoined the golden run\n",
		inj.Snapshots(), inj.SnapshotInterval(), reg.Counter("fi.trials.rejoined").Load(), reg.Counter("fi.trials.executed").Load())
}
