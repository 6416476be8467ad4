// Package fault is the repository's LLFI equivalent: it injects transient
// hardware faults — single bit flips in the destination register of one
// dynamic instruction per run (paper §II-A, §V-A2) — and classifies the
// outcome against a golden run as Benign, SDC, Crash, Hang, or Detected.
//
// Faults are only injected into executed register-writing instructions, so
// every injected fault is activated, matching the paper's definition of
// SDC probability as conditional on activation.
//
// DESIGN.md §5–§5c cover the fault model, campaign lifecycle and the
// snapshot-replay engine; §5h how a campaign is re-run; §5i the
// bit-liveness pruning behind Options.PruneBits; §5j the one campaign
// driver every sampling mode runs through.
package fault

import (
	"context"
	"errors"
	"fmt"
	mbits "math/bits"
	"sort"
	"time"

	"trident/internal/bitlive"
	"trident/internal/decoded"
	"trident/internal/hashutil"
	"trident/internal/interp"
	"trident/internal/ir"
	"trident/internal/telemetry"
)

// ModelVersion names the fault model and its version; the campaign
// server's result cache keeps its entries in a directory of this name.
// Bump it whenever injection semantics change (sampling, classification,
// bit selection), so old results stop matching without any migration.
const ModelVersion = "bitflip/v1"

// Outcome classifies one fault-injection run.
type Outcome uint8

// Injection outcomes.
const (
	// Benign: the program output matched the golden run.
	Benign Outcome = iota + 1
	// SDC: the program completed with different output.
	SDC
	// Crash: a hardware-exception-like trap terminated the run.
	Crash
	// Hang: the run exceeded its instruction budget.
	Hang
	// Detected: a duplication check caught the corruption.
	Detected
	// Errored: the trial could not be classified because the engine itself
	// failed (panic, internal error, or watchdog expiry) after exhausting
	// its retry budget. Errored trials carry no program-behavior signal;
	// campaigns report them separately so partial results stay usable.
	Errored
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case Benign:
		return "benign"
	case SDC:
		return "sdc"
	case Crash:
		return "crash"
	case Hang:
		return "hang"
	case Detected:
		return "detected"
	case Errored:
		return "errored"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// AllOutcomes lists every trial classification in reporting order.
var AllOutcomes = []Outcome{Benign, SDC, Crash, Hang, Detected, Errored}

// outcomeFromName inverts Outcome.String for checkpoint decoding.
func outcomeFromName(s string) (Outcome, bool) {
	for _, o := range AllOutcomes {
		if o.String() == s {
			return o, true
		}
	}
	return 0, false
}

// Injection describes one fault-injection trial.
type Injection struct {
	// Instr is the static instruction whose destination register was
	// corrupted.
	Instr *ir.Instr
	// Instance is the 1-based dynamic occurrence of Instr that was hit.
	Instance uint64
	// Bit is the flipped bit position within the result type's width.
	Bit int
	// Outcome classifies the run.
	Outcome Outcome
	// Pruned marks a trial that was classified Benign without execution
	// because the static bit-liveness analysis (internal/bitlive) proved
	// the flipped bit masked. Pruned trials keep their slot in the
	// sampling stream, so pruned campaigns remain trial-for-trial
	// comparable with unpruned ones; the exhaustive oracle in
	// internal/crosscheck verifies the claim by executing such bits.
	Pruned bool
	// CrashLatency is the number of dynamic instructions executed between
	// the injection and the trap, for Crash outcomes (0 otherwise) — the
	// quantity behind long-latency-crash characterizations.
	CrashLatency uint64
}

// Options configure an injector.
type Options struct {
	// Seed drives the deterministic PRNG used for sampling targets.
	Seed uint64
	// Workers is the number of concurrent injection runs in campaigns
	// (0 = DefaultWorkers). Each run is independent; memory states are never shared.
	Workers int
	// TrialTimeout is a per-trial wall-clock watchdog layered on top of
	// the instruction budget (0 = none). A trial that exceeds it fails
	// with a transient EngineError: it is retried up to MaxRetries times
	// and then classified Errored.
	TrialTimeout time.Duration
	// MaxRetries bounds re-executions of a trial that fails with a
	// transient EngineError. Retries re-run the exact same
	// (instruction, instance, bit) spec — never a re-sampled one — so
	// flaky trials cannot skew outcome rates.
	MaxRetries int
	// SnapshotInterval enables snapshot-replay trials: the injector
	// captures golden-run state snapshots at the first loop-header entry
	// after every SnapshotInterval dynamic instructions, and each trial
	// resumes from the nearest snapshot at or before its injection point
	// instead of re-interpreting the whole pre-fault prefix from
	// instruction 0. The same snapshots end trials early: once its fault
	// has fired, a trial whose machine state at a loop header equals a
	// golden snapshot's (the dynamic counters aside) is classified Benign
	// there, since its suffix is the golden suffix (DESIGN.md §5c). The
	// interpreter is deterministic, so trial outcomes are bit-identical
	// to full re-execution from instruction 0 (enforced by the
	// differential test suite). Zero selects DefaultSnapshotInterval; a
	// negative value re-executes every trial in full, to its end (full
	// re-execution, kept as the differential and benchmark baseline).
	SnapshotInterval int
	// TrialHook, when non-nil, runs before every trial attempt with the
	// trial spec and 1-based attempt number. A non-nil return (or a panic)
	// fails the attempt. It exists to inject faults into the fault
	// injector itself: campaign-robustness tests and chaos drills use it
	// to simulate engine panics and transient failures deterministically.
	TrialHook func(target *ir.Instr, instance uint64, bit int, attempt int) error
	// Metrics, when non-nil, receives campaign telemetry — per-trial
	// outcome counters, retry tallies, worker utilization, the golden-run
	// vs replay time split — and is threaded into the interpreter for its
	// run and snapshot metrics. After a campaign completes, the outcome
	// counters reconcile exactly with CampaignResult.Counts (a cancelled
	// campaign may additionally have counted trials that finished past the
	// contiguous prefix it returned). Nil disables all recording. See
	// OBSERVABILITY.md for the metric reference.
	Metrics *telemetry.Registry
	// Trace, when non-nil, receives lifecycle records: spans for the
	// golden run, the snapshot-capture pass and each campaign, and one
	// event per errored trial. Nil disables tracing.
	Trace *telemetry.Trace
	// PruneBits enables static bit-liveness pruning (internal/bitlive,
	// DESIGN.md §5i): campaigns classify trials whose flipped bit is
	// provably masked as Benign without executing them. Sampling is
	// unchanged — pruned trials occupy the same slots in the same
	// deterministic stream — so outcome tallies, rates, and Wilson CIs
	// cover the full activation space and are bit-identical in
	// expectation to unpruned runs (exactly identical under the
	// soundness guarantee, which the crosscheck oracle enforces).
	// Inject/InjectDetail never prune, so single trials — and the
	// oracle — always execute.
	PruneBits bool
	// Stratify, when non-nil, enables stratified campaigns
	// (CampaignStratified, and Campaign and FromCheckpoint, which run
	// the design Options select): the injector classifies every
	// injectable bit into an influence stratum
	// (bitlive.ClassifyInfluence) and thins the sampled slots by the
	// plan's per-stratum rates with inverse-probability reweighting.
	// Estimates stay exactly unbiased for any valid plan (rates in
	// (0, 1]); only the variance changes. The plan does not affect
	// CampaignRandom or Inject/InjectDetail. See ANALYSIS.md,
	// "Stratified sampling over live bits".
	Stratify *bitlive.Plan
	// Adaptive, when non-nil, enables adaptive two-phase campaigns
	// (CampaignAdaptive, and the adaptive mode of Campaign and
	// FromCheckpoint): a static-shape pilot
	// phase (live strata at rate 1, provably-masked slots at the rate
	// floor) estimates per-stratum SDC variance, NeymanPlan derives the
	// main-phase inclusion rates, and the pilot trials fold into the
	// final weighted estimate at the pilot plan's 1/q. Mutually exclusive
	// with Stratify — an adaptive campaign derives its own plan. The
	// zero-value config fields select the package defaults. See
	// ANALYSIS.md, "Adaptive (Neyman) allocation".
	Adaptive *AdaptiveConfig
	// OnProgress, when non-nil, is invoked synchronously after every
	// completed trial of a campaign (including trials replayed from a
	// checkpoint) with monotonically non-decreasing Done and outcome
	// counts. It runs under the campaign's result lock: keep it cheap
	// (the cmd binaries feed a throttled progress meter) and do not call
	// back into the injector from it.
	OnProgress func(Progress)
}

// DefaultSnapshotInterval is the golden-snapshot spacing, in dynamic
// instructions, that Options.SnapshotInterval's zero value selects,
// picked from an interval sweep over the paper kernels' campaigns
// (DESIGN.md §5c, "Interval choice").
const DefaultSnapshotInterval = 512

// DefaultWorkers is the campaign worker count that Options.Workers'
// zero value selects.
const DefaultWorkers = 4

const (
	// hangFactor multiplies the golden dynamic instruction count to set
	// a trial's hang budget.
	hangFactor = 10
	// maxSnapshots caps golden snapshots per injector so a long golden run
	// with a small SnapshotInterval cannot hold an unbounded number of
	// memory copies; the effective interval is raised to stay under it.
	maxSnapshots = 1024
)

// Injector runs fault-injection trials against one module and input.
type Injector struct {
	module *ir.Module
	opts   Options

	goldenOutput string
	goldenHash   uint64
	goldenDyn    uint64
	hangBudget   uint64

	// moduleHash is the content address of the module's canonical printed
	// text, computed once here and stamped into checkpoint headers so
	// stale artifacts are rejected by content, not by name.
	moduleHash uint64

	// execCount maps each register-writing static instruction to its
	// dynamic count in the golden run; it defines the activation space.
	execCount map[*ir.Instr]uint64
	// targets enumerates register-writing instructions with nonzero
	// counts, with cumulative counts for weighted sampling.
	targets []*ir.Instr
	cum     []uint64
	total   uint64

	// snaps are the golden-run snapshots for snapshot-replay trials, in
	// execution order (empty under full re-execution). counts[in][i] is
	// how many of in's dynamic executions completed strictly before
	// snaps[i] (non-decreasing in i), which is what maps a trial's
	// (instruction, instance) fault point to the snapshots preceding it.
	// join indexes the same snapshots by block for rejoin checks.
	snaps  []*interp.Snapshot
	counts map[*ir.Instr][]uint64
	join   *interp.JoinIndex

	// prog is the module lowered for the interpreter, compiled once in
	// New and shared (it is immutable) by every run the injector issues.
	prog *decoded.Program

	// prune is the static bit-liveness report used to skip provably-
	// masked trials; nil unless Options.PruneBits is set.
	prune *bitlive.Report

	// influence is the per-bit stratum classification driving stratified
	// campaigns; nil unless Options.Stratify is set.
	influence *bitlive.Influence

	// met is the pre-resolved metric set (nil when Options.Metrics is
	// nil), so trial workers record through atomics only.
	met *campaignMetrics
}

// New creates an injector, performing the golden run.
func New(m *ir.Module, opts Options) (*Injector, error) {
	if opts.Workers <= 0 {
		opts.Workers = DefaultWorkers
	}
	if opts.SnapshotInterval == 0 {
		opts.SnapshotInterval = DefaultSnapshotInterval
	}
	inj := &Injector{module: m, opts: opts, execCount: make(map[*ir.Instr]uint64)}
	inj.moduleHash = hashutil.Module(m)
	inj.met = newCampaignMetrics(opts.Metrics)
	if opts.PruneBits {
		inj.prune = bitlive.Analyze(m)
	}
	if opts.Stratify != nil && opts.Adaptive != nil {
		return nil, fmt.Errorf("fault: Options.Stratify and Options.Adaptive are mutually exclusive: adaptive campaigns derive their own plan")
	}
	if opts.Adaptive != nil {
		if err := opts.Adaptive.Validate(); err != nil {
			return nil, err
		}
	}
	if opts.Stratify != nil || opts.Adaptive != nil {
		if opts.Stratify != nil {
			if err := opts.Stratify.Validate(); err != nil {
				return nil, err
			}
		}
		// The classifier needs the liveness report for its Masked
		// stratum; reuse the pruning report when both are on, otherwise
		// analyze without enabling pruning.
		rep := inj.prune
		if rep == nil {
			rep = bitlive.Analyze(m)
		}
		inj.influence = bitlive.ClassifyInfluence(m, rep)
	}
	inj.prog = interp.CompileDecoded(m, opts.Metrics)

	g, err := inj.goldenRun()
	if err != nil {
		return nil, err
	}
	for in, i := range g.index {
		if c := g.counts[i]; c > 0 {
			inj.execCount[in] = c
		}
	}
	m.Instrs(func(in *ir.Instr) {
		if c := inj.execCount[in]; c > 0 && in.HasResult() {
			inj.targets = append(inj.targets, in)
			inj.total += c
			inj.cum = append(inj.cum, inj.total)
		}
	})
	if inj.total == 0 {
		return nil, fmt.Errorf("fault: program executes no register-writing instructions")
	}
	if opts.SnapshotInterval > 0 {
		if err := inj.indexSnapshots(g); err != nil {
			return nil, err
		}
	}
	return inj, nil
}

// golden is what a golden run leaves for New: the dynamic result count
// of every register-writing static instruction the program can execute
// (counts, indexed through index), and the snapshots captured with, per
// instruction, its count at each capture point (countsAt, parallel to
// counts).
type golden struct {
	index    map[*ir.Instr]int
	counts   []uint64
	snaps    []*interp.Snapshot
	countsAt [][]uint64
	// dropped is set when the captures outgrew their limit; snaps and
	// countsAt are then empty.
	dropped bool
}

// goldenRun performs the fault-free run, counting every static
// instruction's dynamic results. Unless trials re-execute in full, the
// same pass captures snapshots at the requested interval. A run that
// needs more than maxSnapshots of them is stopped at the cap and run
// again without capture, and indexSnapshots then captures at a raised
// interval.
func (inj *Injector) goldenRun() (*golden, error) {
	m, opts := inj.module, inj.opts
	span := opts.Trace.Start("golden-run", telemetry.Attrs{"module": m.Name})
	goldenStart := time.Now()
	g, res, err := inj.runGolden(uint64(max(opts.SnapshotInterval, 0)), maxSnapshots)
	if g.dropped && err != nil {
		g, res, err = inj.runGolden(0, 0)
		g.dropped = true
	}
	if mt := inj.met; mt != nil {
		mt.goldenUS.Since(goldenStart)
	}
	if err != nil {
		return nil, fmt.Errorf("fault: golden run: %w", err)
	}
	span.EndWith(telemetry.Attrs{"dyn_instrs": res.DynInstrs})
	if res.Outcome != interp.OutcomeOK {
		return nil, fmt.Errorf("fault: golden run ended in %s", res.Outcome)
	}
	inj.goldenOutput = res.Output
	inj.goldenHash = hashOutput(res.Output)
	inj.goldenDyn = res.DynInstrs
	inj.hangBudget = res.DynInstrs * hangFactor
	if inj.hangBudget < 100_000 {
		inj.hangBudget = 100_000
	}
	return g, nil
}

// runGolden executes the fault-free run once, counting results and,
// when interval is positive, capturing snapshots at that interval. A
// capture past limit (when limit is positive) sets dropped, drops every
// capture and cancels the run.
func (inj *Injector) runGolden(interval uint64, limit int) (*golden, *interp.Result, error) {
	g := &golden{index: make(map[*ir.Instr]int)}
	for _, df := range inj.prog.Funcs {
		df.Ref.Instrs(func(in *ir.Instr) {
			if in.HasResult() {
				g.index[in] = len(g.index)
			}
		})
	}
	g.counts = make([]uint64, len(g.index))
	ropts := interp.Options{
		Decoded: inj.prog,
		Metrics: inj.opts.Metrics,
		Hooks: interp.Hooks{
			OnResult: func(_ *interp.Context, in *ir.Instr, _ uint64) {
				g.counts[g.index[in]]++
			},
		},
	}
	if interval > 0 {
		g.countsAt = make([][]uint64, len(g.counts))
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ropts.Context = ctx
		ropts.SnapshotInterval = interval
		ropts.OnSnapshot = func(s *interp.Snapshot) {
			if g.dropped || limit > 0 && len(g.snaps) == limit {
				g.dropped, g.snaps, g.countsAt = true, nil, nil
				cancel()
				return
			}
			g.snaps = append(g.snaps, s)
			for i, c := range g.counts {
				g.countsAt[i] = append(g.countsAt[i], c)
			}
		}
	}
	res, err := interp.Run(inj.module, ropts)
	return g, res, err
}

// indexSnapshots builds the snapshot-replay tables from the golden
// run's captures: each target's count at every snapshot, and the join
// index. A golden run too long for maxSnapshots snapshots at the
// requested interval is first run again, capturing at the raised
// interval goldenDyn/maxSnapshots rounded up, which captures at most
// maxSnapshots; that pass must reproduce the golden run exactly, so a
// nondeterminism bug in the engine surfaces here instead of silently
// corrupting trial outcomes.
func (inj *Injector) indexSnapshots(g *golden) error {
	interval := uint64(inj.opts.SnapshotInterval)
	floor := (inj.goldenDyn + maxSnapshots - 1) / maxSnapshots
	again := interval < floor || g.dropped
	interval = max(interval, floor)
	span := inj.opts.Trace.Start("snapshot-capture", telemetry.Attrs{
		"module": inj.module.Name, "interval": interval,
	})
	setupStart := time.Now()
	if again {
		var res *interp.Result
		var err error
		if g, res, err = inj.runGolden(interval, 0); err != nil {
			return fmt.Errorf("fault: snapshot capture run: %w", err)
		}
		if res.Output != inj.goldenOutput || res.DynInstrs != inj.goldenDyn {
			return fmt.Errorf("fault: snapshot capture run diverged from golden run "+
				"(%d dynamic instructions, want %d)", res.DynInstrs, inj.goldenDyn)
		}
	}
	inj.snaps = g.snaps
	inj.counts = make(map[*ir.Instr][]uint64, len(inj.targets))
	for _, in := range inj.targets {
		inj.counts[in] = g.countsAt[g.index[in]]
	}
	inj.join = interp.NewJoinIndex(inj.snaps, inj.goldenDyn)
	if mt := inj.met; mt != nil {
		mt.setupUS.Since(setupStart)
	}
	span.EndWith(telemetry.Attrs{"snapshots": len(inj.snaps)})
	return nil
}

// Snapshots returns the number of golden-run snapshots held for
// snapshot-replay trials (0 when every trial re-executes in full).
func (inj *Injector) Snapshots() int { return len(inj.snaps) }

// SnapshotInterval returns the resolved Options.SnapshotInterval: the
// requested golden-snapshot spacing, or a negative value under full
// re-execution.
func (inj *Injector) SnapshotInterval() int { return inj.opts.SnapshotInterval }

// snapshotBefore returns the index of the latest golden snapshot captured
// strictly before the instance-th dynamic execution of target, or -1 when
// the injection point precedes every snapshot (the trial then runs from
// instruction 0, exactly like a full re-execution). Per-instruction counts
// are non-decreasing across snapshots, so binary search applies. This is
// the grouping of trial specs by fault point: every spec whose injection
// index falls in the same inter-snapshot interval resumes from the same
// snapshot.
func (inj *Injector) snapshotBefore(target *ir.Instr, instance uint64) int {
	c := inj.counts[target]
	return sort.Search(len(c), func(i int) bool { return c[i] >= instance }) - 1
}

// GoldenOutput returns the fault-free program output.
func (inj *Injector) GoldenOutput() string { return inj.goldenOutput }

// ModuleHash returns the content address of the module under injection:
// hashutil.Module of its canonical printed text.
func (inj *Injector) ModuleHash() uint64 { return inj.moduleHash }

// GoldenDynInstrs returns the fault-free dynamic instruction count.
func (inj *Injector) GoldenDynInstrs() uint64 { return inj.goldenDyn }

// HangBudget returns the instruction budget past which a trial is
// classified Hang: hangFactor times the golden run, at least 100,000.
func (inj *Injector) HangBudget() uint64 { return inj.hangBudget }

// ActivationSpace returns the number of dynamic register writes — the
// population faults are sampled from.
func (inj *Injector) ActivationSpace() uint64 { return inj.total }

// ExecCount returns the golden dynamic count of a static instruction.
func (inj *Injector) ExecCount(in *ir.Instr) uint64 { return inj.execCount[in] }

// Targets returns the injectable static instructions (executed,
// register-writing), in program order.
func (inj *Injector) Targets() []*ir.Instr {
	out := make([]*ir.Instr, len(inj.targets))
	copy(out, inj.targets)
	return out
}

// Inject runs one trial: the bit-th bit of the result of the instance-th
// dynamic execution of target is flipped. ctx cancels the run; nil means
// context.Background.
func (inj *Injector) Inject(ctx context.Context, target *ir.Instr, instance uint64, bit int) (Outcome, error) {
	d, err := inj.InjectDetail(ctx, target, instance, bit)
	return d.Outcome, err
}

// Detail carries the full observation of one injection trial.
type Detail struct {
	// Outcome classifies the run.
	Outcome Outcome
	// CrashLatency is the number of dynamic instructions executed between
	// the injection and the trap, for Crash outcomes.
	CrashLatency uint64
	// OutputHash is the 64-bit FNV-1a hash of the trial's complete program
	// output (including any prefix replayed from a snapshot). A trial
	// that rejoined the golden run stopped before its end; its output is
	// by construction the golden output, so it carries the golden hash.
	// The differential test suite compares it across the snapshot-replay
	// and full re-execution paths.
	OutputHash uint64
}

// InjectDetail is Inject with crash-latency measurement: how many dynamic
// instructions execute between the bit flip and the trap. Short latencies
// mean crashes are easy to contain; long-latency crashes behave like SDCs
// for checkpointing purposes (Li et al.'s characterization in the paper's
// related work).
func (inj *Injector) InjectDetail(ctx context.Context, target *ir.Instr, instance uint64, bit int) (Detail, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if instance == 0 {
		return Detail{}, fmt.Errorf("fault: instance is 1-based")
	}
	// The per-trial watchdog bounds wall-clock time on top of the
	// instruction budget; its expiry (as opposed to campaign-level
	// cancellation of the parent context) is a transient engine failure.
	parent := ctx
	if inj.opts.TrialTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, inj.opts.TrialTimeout)
		defer cancel()
	}
	iopts := interp.Options{
		Context:      ctx,
		MaxDynInstrs: inj.hangBudget,
		Metrics:      inj.opts.Metrics,
		Decoded:      inj.prog,
		Fault:        interp.Fault{Target: target, Instance: instance, Mask: 1 << uint(bit)},
		Join:         inj.join,
	}
	// Snapshot replay: the pre-fault prefix of the trial is identical to
	// the golden run, so resume from the latest golden snapshot preceding
	// the injection point, with the target's executions before it already
	// seen. With no usable snapshot the trial runs from instruction 0.
	// Once the fault has fired, the trial stops early, Benign, if its
	// state rejoins the golden run at a loop header.
	var res *interp.Result
	var err error
	if si := inj.snapshotBefore(target, instance); si >= 0 {
		iopts.Fault.Seen = inj.counts[target][si]
		if mt := inj.met; mt != nil {
			mt.replaySnap.Inc()
			mt.savedInstrs.Add(inj.snaps[si].DynInstrs())
		}
		res, err = interp.Resume(inj.snaps[si], iopts)
	} else {
		if mt := inj.met; mt != nil {
			mt.replayCold.Inc()
		}
		res, err = interp.Run(inj.module, iopts)
	}
	if err != nil {
		switch {
		case parent.Err() != nil:
			// Campaign-level cancellation: propagate as-is so the caller
			// can distinguish "stop everything" from a failed trial.
			return Detail{}, parent.Err()
		case errors.Is(ctx.Err(), context.DeadlineExceeded):
			return Detail{}, &EngineError{
				Err:       fmt.Errorf("trial watchdog (%v) expired: %w", inj.opts.TrialTimeout, err),
				Transient: true,
			}
		default:
			var ie *interp.InternalError
			if errors.As(err, &ie) {
				return Detail{}, &EngineError{Err: ie, Recovered: ie.Recovered}
			}
			return Detail{}, fmt.Errorf("fault: injected run: %w", err)
		}
	}
	if !res.Injected {
		return Detail{}, fmt.Errorf("fault: instance %d of %s never executed", instance, target.Pos())
	}
	if res.Rejoined {
		if mt := inj.met; mt != nil {
			mt.rejoined.Inc()
			mt.rejoinSaved.Add(inj.goldenDyn - res.JoinedAt)
			if res.JoinedAt != res.DynInstrs {
				mt.rejoinShifted.Inc()
			}
		}
		return Detail{Outcome: Benign, OutputHash: inj.goldenHash}, nil
	}
	d := Detail{Outcome: inj.classify(res), OutputHash: hashOutput(res.Output)}
	if d.Outcome == Crash && res.DynInstrs >= res.InjectedAt {
		d.CrashLatency = res.DynInstrs - res.InjectedAt
	}
	return d, nil
}

// hashOutput is the 64-bit FNV-1a hash of a program's output, shared
// with the cross-check oracle and the campaign cache through hashutil so
// output fingerprints are interchangeable across subsystems.
func hashOutput(s string) uint64 { return hashutil.Output(s) }

func (inj *Injector) classify(res *interp.Result) Outcome {
	switch res.Outcome {
	case interp.OutcomeCrash:
		return Crash
	case interp.OutcomeHang:
		return Hang
	case interp.OutcomeDetected:
		return Detected
	default:
		if res.Output == inj.goldenOutput {
			return Benign
		}
		return SDC
	}
}

// pick maps a uniform draw in [1, total] to (instruction, instance) by
// binary search over the cumulative counts.
func (inj *Injector) pick(k uint64) (*ir.Instr, uint64) {
	lo, hi := 0, len(inj.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if inj.cum[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	in := inj.targets[lo]
	prev := uint64(0)
	if lo > 0 {
		prev = inj.cum[lo-1]
	}
	return in, k - prev
}

// randomBit picks a bit position within the instruction's result width.
func randomBit(r *hashutil.Stream, in *ir.Instr) int {
	w := in.Type.Bits()
	if w <= 1 {
		return 0
	}
	return int(r.Intn(uint64(w)))
}

// isPruned reports whether a campaign trial spec lands on a provably-
// masked bit and can be classified Benign without execution.
func (inj *Injector) isPruned(spec trialSpec) bool {
	return inj.prune != nil && inj.prune.MaskedBit(spec.instr, spec.bit)
}

// PrunedFraction returns the expected share of uniform activation-space
// trials that bit-liveness pruning skips: the golden-execution-weighted
// mean of masked-bits/width over all injectable targets. The CI-equal
// trial saving of a pruned campaign is 1/(1-PrunedFraction) — this is
// the `bits_pruned_pct` column in BENCH_fi.json. Returns 0 when
// pruning is off.
func (inj *Injector) PrunedFraction() float64 {
	if inj.prune == nil || inj.total == 0 {
		return 0
	}
	var weighted float64
	for _, in := range inj.targets {
		w := in.Type.Bits()
		if w == 0 {
			continue
		}
		masked := mbits.OnesCount64(inj.prune.Masked(in))
		weighted += float64(inj.execCount[in]) * float64(masked) / float64(w)
	}
	return weighted / float64(inj.total)
}
