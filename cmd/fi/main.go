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
// over HTTP for poking at a long campaign from another terminal.
//
// Usage:
//
//	fi -program pathfinder [-n 3000] [-seed 1] [-workers 4] [-per-instr]
//	   [-snapshot-interval 2048] [-prune-bits]
//	   [-checkpoint trials.jsonl] [-resume] [-retries 2] [-trial-timeout 30s]
//	   [-metrics-out metrics.json] [-trace-out trace.jsonl] [-debug-addr :6060]
//	fi -ir file.tir [...]
//	fi -remote http://localhost:8344 -program pathfinder [-shards 4]
//	   [-detach | -job job-xxxx] [-trials-out trials.jsonl]
//
// Exit codes follow the shell convention: 0 for a completed campaign,
// 1 for errors, and 128+signum (130 for SIGINT, 143 for SIGTERM) when
// a signal cancelled the campaign — partial results were reported, but
// distinguishably from both success and failure.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"trident/internal/bitlive"
	"trident/internal/cache"
	"trident/internal/fault"
	"trident/internal/hashutil"
	"trident/internal/ir"
	"trident/internal/progs"
	"trident/internal/server"
	"trident/internal/sigctx"
	"trident/internal/stats"
	"trident/internal/telemetry"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "fi:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("fi", flag.ContinueOnError)
	program := fs.String("program", "", "built-in benchmark name")
	irFile := fs.String("ir", "", "textual IR file")
	n := fs.Int("n", 3000, "number of injections")
	seed := fs.Uint64("seed", 1, "deterministic seed")
	workers := fs.Int("workers", 4, "parallel injection workers")
	perInstr := fs.Bool("per-instr", false, "also report per-instruction SDC probabilities (uses -n per instruction / 10)")
	checkpoint := fs.String("checkpoint", "", "JSONL trial log: completed trials are persisted here and replayed on restart")
	cacheDir := fs.String("cache-dir", "", "run an incremental compositional campaign against a content-addressed per-function profile cache rooted here; only functions whose body hash changed since the cached run re-inject")
	composeOut := fs.String("compose-out", "", "with -cache-dir: write the composed per-function result as deterministic JSON here (cache-state independent, so runs can be byte-compared)")
	resume := fs.Bool("resume", false, "require an existing checkpoint (refuse to start from scratch); implies -checkpoint")
	retries := fs.Int("retries", 1, "retry attempts for trials failing with transient engine errors")
	trialTimeout := fs.Duration("trial-timeout", 0, "per-trial wall-clock watchdog on top of the instruction budget (0 = none)")
	snapInterval := fs.Uint64("snapshot-interval", 2048, "dynamic instructions between golden-run snapshots that trials resume from (0 = full re-execution)")
	pruneBits := fs.Bool("prune-bits", false, "skip injections into statically provably-masked bits, recording them benign without execution; results are bit-identical to an unpruned campaign (exact reweighting, see DESIGN.md §5i)")
	stratify := fs.Bool("stratify", false, "stratified live-bit importance sampling: thin low-influence strata (noise, masked bits) deterministically and reweight executed trials by inverse inclusion probability; the weighted estimates stay unbiased at a fraction of the executed trials (see ANALYSIS.md)")
	stratifyAdaptive := fs.Bool("stratify-adaptive", false, "two-phase adaptive (Neyman-allocation) stratified sampling: a static-shape pilot over the first ~20% of the slot budget (provably-masked slots thinned at the rate floor) estimates per-stratum SDC rates, the remaining slots are thinned under the derived plan, and pilot trials fold into the weighted estimate at the pilot plan's 1/q — executed trials never exceed -n (see ANALYSIS.md); with -cache-dir, plans are seeded from cached per-function profiles and the pilot is skipped on hits")
	maskedRate := fs.Float64("stratify-masked-rate", bitlive.DefaultMaskedRate, "with -stratify: inclusion rate of the provably-masked stratum in the static plan, in (0, 1]")
	metricsOut := fs.String("metrics-out", "", "write a JSON metrics snapshot here on exit (see OBSERVABILITY.md)")
	traceOut := fs.String("trace-out", "", "write a JSONL event trace here (campaign spans, errored trials)")
	debugAddr := fs.String("debug-addr", "", "serve expvar and pprof on this HTTP address (e.g. :6060) for the campaign's lifetime")
	progress := fs.Bool("progress", true, "render a live campaign progress line on stderr")
	remote := fs.String("remote", "", "submit to a running fiserver at this base URL (e.g. http://localhost:8344) instead of running locally")
	jobID := fs.String("job", "", "with -remote: attach to this existing job instead of submitting a new one")
	detach := fs.Bool("detach", false, "with -remote: submit, print the job id, and exit without watching")
	shards := fs.Int("shards", 0, "with -remote: shard count for the server-side campaign (0 = server default)")
	trialsOut := fs.String("trials-out", "", "with -remote: write the result's per-trial records as JSONL here")
	dumpIR := fs.Bool("dump-ir", false, "print the selected module's canonical IR to stdout and exit (for scripted edit-and-rerun drills)")
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
		fmt.Print(ir.Print(m))
		return 0, nil
	}
	if *resume && *checkpoint == "" {
		return 1, fmt.Errorf("-resume requires -checkpoint")
	}
	if *composeOut != "" && *cacheDir == "" {
		return 1, fmt.Errorf("-compose-out requires -cache-dir")
	}
	if *cacheDir != "" && (*checkpoint != "" || *perInstr || *remote != "") {
		return 1, fmt.Errorf("-cache-dir is incompatible with -checkpoint, -per-instr and -remote")
	}
	if *stratify && (*cacheDir != "" || *perInstr) {
		return 1, fmt.Errorf("-stratify is incompatible with -cache-dir and -per-instr")
	}
	if *stratify && *stratifyAdaptive {
		return 1, fmt.Errorf("-stratify and -stratify-adaptive are mutually exclusive: an adaptive campaign derives its own plan")
	}
	if *stratifyAdaptive && *perInstr {
		return 1, fmt.Errorf("-stratify-adaptive is incompatible with -per-instr")
	}
	if !(*maskedRate > 0) || *maskedRate > 1 {
		return 1, fmt.Errorf("-stratify-masked-rate %v outside (0, 1]", *maskedRate)
	}
	if *maskedRate != bitlive.DefaultMaskedRate && !*stratify {
		return 1, fmt.Errorf("-stratify-masked-rate requires -stratify")
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
		if *maskedRate != bitlive.DefaultMaskedRate {
			return 1, fmt.Errorf("-stratify-masked-rate is not supported with -remote (the server runs the default plan)")
		}
		return runRemote(ctx, fired, remoteOpts{
			base:      *remote,
			jobID:     *jobID,
			detach:    *detach,
			trialsOut: *trialsOut,
			progress:  *progress,
			req: &server.SubmitRequest{
				Program:          *program,
				IR:               irText,
				N:                *n,
				Seed:             *seed,
				Shards:           *shards,
				Workers:          *workers,
				SnapshotInterval: *snapInterval,
				MaxRetries:       *retries,
				TrialTimeoutMS:   trialTimeout.Milliseconds(),
				PruneBits:        *pruneBits,
				Stratify:         *stratify,
				StratifyAdaptive: *stratifyAdaptive,
			},
		})
	}

	reg := telemetry.Default
	var trace *telemetry.Trace
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			return 1, err
		}
		defer tf.Close()
		trace = telemetry.NewTrace(tf)
	}
	if *debugAddr != "" {
		dbg, err := telemetry.ServeDebug(*debugAddr, reg)
		if err != nil {
			return 1, err
		}
		// Graceful: an in-flight pprof scrape gets a second to finish.
		defer dbg.Shutdown(time.Second)
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/vars\n", dbg.Addr())
	}

	m, err := progs.Load(*program, irText)
	if err != nil {
		return 1, err
	}
	// The progress meter and the campaign share stderr; the meter's
	// final line is flushed before any summary printing below.
	var meter *telemetry.ProgressMeter
	var onProgress func(fault.Progress)
	var lastProgress func() string
	if *progress {
		meter = telemetry.NewProgressMeter(os.Stderr, 0)
		var mu sync.Mutex
		var last fault.Progress
		onProgress = func(p fault.Progress) {
			mu.Lock()
			last = p
			mu.Unlock()
			meter.Update(p.String)
		}
		lastProgress = func() string {
			mu.Lock()
			defer mu.Unlock()
			return last.String()
		}
	}

	var plan *bitlive.Plan
	if *stratify {
		p := bitlive.MaskedRatePlan(*maskedRate)
		plan = &p
	}
	var adaptive *fault.AdaptiveConfig
	if *stratifyAdaptive {
		adaptive = &fault.AdaptiveConfig{}
	}
	inj, err := fault.New(m, fault.Options{
		Seed:             *seed,
		Workers:          *workers,
		MaxRetries:       *retries,
		TrialTimeout:     *trialTimeout,
		SnapshotInterval: *snapInterval,
		Metrics:          reg,
		Trace:            trace,
		OnProgress:       onProgress,
		PruneBits:        *pruneBits,
		Stratify:         plan,
		Adaptive:         adaptive,
	})
	if err != nil {
		return 1, err
	}
	fmt.Printf("golden run: %d dynamic instructions, activation space %d\n",
		inj.GoldenDynInstrs(), inj.ActivationSpace())
	if *pruneBits {
		fmt.Printf("bit-liveness pruning: %.1f%% of activation-weighted bits provably masked\n",
			inj.PrunedFraction()*100)
	}
	if *cacheDir != "" {
		return runCompositional(ctx, fired, compositionalOpts{
			inj: inj, module: m, n: *n, adaptive: *stratifyAdaptive, snapInterval: *snapInterval,
			cacheDir: *cacheDir, composeOut: *composeOut, metricsOut: *metricsOut,
			reg: reg, trace: trace, meter: meter, lastProgress: lastProgress,
		})
	}

	start := time.Now()
	// One call serves every sampling mode the options select; -resume
	// adds the "refuse to start from scratch" contract to the checkpoint.
	ares, err := inj.Campaign(ctx, *n, fault.Run{Checkpoint: *checkpoint, Resume: *resume})
	meter.Final(lastProgress)
	cancelled := errors.Is(err, context.Canceled)
	if err != nil && !cancelled {
		return 1, err
	}

	// Snapshot metrics now, before any -per-instr extra campaigns run,
	// so the fi.outcome.* counters reconcile exactly with the campaign
	// tallies printed below.
	if *metricsOut != "" {
		if werr := writeMetrics(reg, *metricsOut); werr != nil {
			return 1, werr
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", *metricsOut)
	}

	printReplay(inj, *snapInterval, reg)
	res := ares.CampaignResult
	if cancelled {
		fmt.Printf("\ncampaign cancelled after %.1fs: reporting the %d completed trials (of %d requested)\n",
			time.Since(start).Seconds(), res.N(), *n)
		if *checkpoint != "" {
			fmt.Printf("completed trials are checkpointed in %s; rerun with -resume to finish\n", *checkpoint)
		}
	}
	fmt.Printf("\n%d injections into %s:\n", res.N(), m.Name)
	for _, o := range fault.AllOutcomes {
		if o == fault.Errored && res.Counts[o] == 0 {
			continue
		}
		fmt.Printf("  %-9s %6d  (%.2f%%)\n", o, res.Counts[o], res.Rate(o)*100)
	}
	if p := res.PrunedN(); p > 0 {
		fmt.Printf("  %d of the benign trials were pruned statically (no execution)\n", p)
	}
	fmt.Printf("SDC probability: %.2f%% ± %.2f%% (95%% CI)\n",
		res.SDCProb()*100, stats.ProportionCI95(res.SDCProb(), res.ClassifiedN())*100)
	if *stratify || *stratifyAdaptive {
		if *stratifyAdaptive {
			fmt.Printf("\nadaptive stratified sampling (pilot %d of %d slots, derived plan %s):\n",
				ares.PilotExecuted, ares.PilotSlots, ares.Plan)
		} else {
			fmt.Printf("\nstratified sampling (plan %s):\n", ares.Plan)
		}
		printStratumTable(ares.StratifiedResult)
		fmt.Printf("  %d of %d drawn slots executed\n", ares.ExecutedN(), *n)
		if *stratifyAdaptive && ares.ExecutedN() > 0 {
			fmt.Printf("  pilot spent %.0f%% of the executed budget buying the plan\n",
				ares.PilotFraction()*100)
		}
		fmt.Printf("weighted SDC probability: %.2f%% ± %.2f%% (95%% CI, effective n %.0f)\n",
			ares.WeightedSDC()*100, ares.WeightedErrorBar95()*100, ares.EffectiveN())
	}
	if len(res.Errs) > 0 {
		fmt.Printf("\n%d trial(s) errored (engine failures, excluded from rates); first few:\n", len(res.Errs))
		for i, te := range res.Errs {
			if i == 5 {
				fmt.Printf("  ... and %d more\n", len(res.Errs)-i)
				break
			}
			fmt.Printf("  %v\n", &te)
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
			fmt.Printf("\nper-instruction campaign cancelled\n")
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
		fmt.Printf("\nper-instruction SDC probabilities (%d injections each):\n", perN)
		fmt.Printf("%-32s %-24s %10s\n", "instruction", "location", "SDC")
		for _, in := range targets {
			fmt.Printf("%-32s %-24s %9.1f%%\n", ir.FormatInstr(in), in.Pos(), measured[in]*100)
		}
	}
	return 0, nil
}

// printStratumTable renders the per-stratum breakdown in stratum
// priority order (fixed, so two runs of the same campaign are
// byte-comparable). Strata that drew no slots — typically because the
// module has no bits in them — render as explicit dash rows rather than
// disappearing, so a five-row table always has five rows.
func printStratumTable(sres *fault.StratifiedResult) {
	fmt.Printf("  %-9s %6s %9s %9s\n", "stratum", "rate", "slots", "executed")
	for _, ss := range sres.Summary() {
		if ss.Slots == 0 && ss.Executed == 0 {
			fmt.Printf("  %-9s %6.2f %9s %9s\n", ss.Stratum, ss.Rate, "-", "-")
			continue
		}
		fmt.Printf("  %-9s %6.2f %9d %9d\n", ss.Stratum, ss.Rate, ss.Slots, ss.Executed)
	}
}

type compositionalOpts struct {
	inj          *fault.Injector
	module       *ir.Module
	n            int
	adaptive     bool
	snapInterval uint64
	cacheDir     string
	composeOut   string
	metricsOut   string
	reg          *telemetry.Registry
	trace        *telemetry.Trace
	meter        *telemetry.ProgressMeter
	lastProgress func() string
}

// printReplay prints the snapshot-replay summary line after a campaign:
// the golden snapshots trials resumed from, and how many of the trials
// this process executed stopped early on rejoining the golden run.
func printReplay(inj *fault.Injector, interval uint64, reg *telemetry.Registry) {
	if interval == 0 {
		return
	}
	fmt.Printf("snapshot replay: %d golden snapshots (interval %d); %d of %d executed trials rejoined the golden run\n",
		inj.Snapshots(), interval, reg.Counter("fi.trials.rejoined").Load(), reg.Counter("fi.trials.executed").Load())
}

// runCompositional executes the incremental campaign mode behind
// -cache-dir: per-function sections are replayed from the content-
// addressed profile cache when their body hash and golden-run stamp
// still match, and re-injected (then cached) otherwise. With
// -stratify-adaptive, each section runs the two-phase adaptive campaign
// instead — and on a cache hit the plan is seeded from the cached
// per-stratum tallies, skipping the pilot entirely.
func runCompositional(ctx context.Context, fired func() os.Signal, o compositionalOpts) (int, error) {
	store, err := cache.Open(o.cacheDir, cache.Options{Metrics: o.reg, Trace: o.trace})
	if err != nil {
		return 1, err
	}
	start := time.Now()
	res, err := o.inj.CampaignCompositional(ctx, o.n, store)
	o.meter.Final(o.lastProgress)
	cancelled := errors.Is(err, context.Canceled)
	if err != nil && !cancelled {
		return 1, err
	}
	if o.metricsOut != "" {
		if werr := writeMetrics(o.reg, o.metricsOut); werr != nil {
			return 1, werr
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", o.metricsOut)
	}
	if cancelled {
		fmt.Printf("\ncampaign cancelled after %.1fs: reporting the %d completed trials (of %d requested); finished sections are cached\n",
			time.Since(start).Seconds(), res.N(), o.n)
	}

	printReplay(o.inj, o.snapInterval, o.reg)
	mode := "compositional"
	if o.adaptive {
		mode = "adaptive compositional"
	}
	fmt.Printf("\n%s campaign over %s (%d trials, cache %s):\n",
		mode, o.module.Name, res.N(), o.cacheDir)
	fmt.Printf("%-16s %-18s %10s %7s  %s\n", "function", "body hash", "weight", "trials", "cache")
	for i := range res.Funcs {
		fc := &res.Funcs[i]
		state := "MISS (injected)"
		switch {
		case o.adaptive && fc.Seeded:
			state = "SEED (plan from plain profile, no pilot)"
		case fc.Cached:
			state = "HIT  (replayed)"
		case o.adaptive:
			state = fmt.Sprintf("MISS (pilot %d + main)", fc.PilotN)
		}
		fmt.Printf("@%-15s %-18s %10d %7d  %s\n",
			fc.Name, hashutil.Hex(fc.BodyHash), fc.Weight, len(fc.Records), state)
		if o.adaptive && fc.Plan != "" {
			fmt.Printf("  %-15s plan %s\n", "", fc.Plan)
		}
	}
	if o.adaptive {
		fmt.Printf("cache: %d hit(s), %d miss(es); %d plan(s) seeded from plain profiles, %d pilot trials executed\n",
			res.Hits, res.Misses, res.SeededFuncs, res.PilotExecuted)
	} else {
		fmt.Printf("cache: %d hit(s), %d miss(es)\n", res.Hits, res.Misses)
	}
	fmt.Printf("\ncomposed outcome rates:\n")
	for _, o2 := range fault.AllOutcomes {
		name := o2.String()
		if cnt, ok := res.Composed.Counts[name]; ok && (o2 != fault.Errored || cnt > 0) {
			fmt.Printf("  %-9s %6d  (%.2f%%)\n", name, cnt, res.Composed.Rates[name]*100)
		}
	}
	fmt.Printf("SDC probability: %.2f%% ± %.2f%% (95%% CI, Wilson from merged tallies)\n",
		res.Composed.SDC*100, res.Composed.ErrorBar95()*100)

	if o.composeOut != "" && !cancelled {
		if werr := writeCompose(o.composeOut, o.module.Name, res); werr != nil {
			return 1, werr
		}
		fmt.Fprintf(os.Stderr, "composed result written to %s\n", o.composeOut)
	}
	if cancelled {
		return sigctx.ExitCode(fired()), nil
	}
	return 0, nil
}

// composeFileFunc is one function's section in the -compose-out JSON.
// Cache hit/miss state is deliberately absent: the file depends only on
// the campaign's inputs and outcomes, so an incremental run and a
// from-scratch run of the same campaign produce byte-identical files —
// the property scripts/cachecheck.sh asserts with cmp.
type composeFileFunc struct {
	Func     string           `json:"func"`
	BodyHash string           `json:"body_hash"`
	Weight   uint64           `json:"weight"`
	N        int              `json:"n"`
	Counts   map[string]int   `json:"counts"`
	Trials   []cache.TrialRec `json:"trials"`
}

type composeFile struct {
	Module     string             `json:"module"`
	Trials     int                `json:"trials"`
	Classified int                `json:"classified"`
	Funcs      []composeFileFunc  `json:"funcs"`
	Counts     map[string]int     `json:"counts"`
	Rates      map[string]float64 `json:"rates"`
	SDC        float64            `json:"sdc"`
	SDCLo      float64            `json:"sdc_lo"`
	SDCHi      float64            `json:"sdc_hi"`
}

func writeCompose(path, module string, res *fault.CompositionalResult) error {
	out := composeFile{
		Module:     module,
		Trials:     res.Composed.Trials,
		Classified: res.Composed.Classified,
		Counts:     res.Composed.Counts,
		Rates:      res.Composed.Rates,
		SDC:        res.Composed.SDC,
		SDCLo:      res.Composed.SDCLo,
		SDCHi:      res.Composed.SDCHi,
	}
	for i := range res.Funcs {
		fc := &res.Funcs[i]
		out.Funcs = append(out.Funcs, composeFileFunc{
			Func:     fc.Name,
			BodyHash: hashutil.Hex(fc.BodyHash),
			Weight:   fc.Weight,
			N:        fc.N,
			Counts:   outcomeNames(fc.Counts),
			Trials:   fc.Records,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// outcomeNames converts an Outcome-keyed tally to string keys (JSON maps
// sort keys, keeping the file deterministic).
func outcomeNames(counts map[fault.Outcome]int) map[string]int {
	out := make(map[string]int, len(counts))
	for o, n := range counts {
		out[o.String()] = n
	}
	return out
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
