// Command fibench compares the two fault-injection execution paths —
// full re-execution of every trial from instruction zero, and snapshot
// replay that resumes each trial from the nearest golden-run snapshot —
// on identical campaigns, verifies the results are bit-identical, and
// records the timings as JSON (BENCH_fi.json).
//
// It also measures the cost of the telemetry layer: each snapshot
// campaign is re-run with a live metrics registry, JSONL trace, and
// progress callback attached, in interleaved single-worker pairs with the
// bare campaign, and the median per-pair ratio of process CPU times is
// reported as telemetry_overhead_cpu (telemetry_overhead keeps the older
// fastest-wall-time ratio). -max-overhead turns the CPU-time measurement
// into a gate (make check uses 0.03, the ≤3% budget OBSERVABILITY.md
// promises).
//
// Usage:
//
//	fibench [-programs pathfinder,nw,sad,rgb2gray,nibblepack,boxblur]
//	        [-n 400] [-seed 7] [-workers 4]
//	        [-interval N] [-repeats 1] [-max-overhead 0]
//	        [-min-snapshot-speedup 0] [-min-pruned-ci-speedup 0]
//	        [-min-strat-ci-shrink 0] [-min-adapt-ci-shrink 0]
//	        [-baseline BENCH_fi.json]
//	        [-out BENCH_fi.json]
//
// -out "-" writes to stdout. -repeats N times every campaign N times and
// keeps the fastest run, damping scheduler noise on loaded machines; the
// overhead measurement runs N bare/instrumented pairs. The snapshot
// speedup is the ratio of the fastest process CPU times (full_cpu_ms /
// snapshot_cpu_ms), which leave out the steal that moves wall time. The
// run fails if any program's campaigns diverge between the paths, if
// -max-overhead is positive and exceeded, or if -min-snapshot-speedup is
// positive and the geometric-mean snapshot-vs-full speedup falls below
// it, or if -baseline names a committed results file and a program's
// speedup falls more than maxSpeedupDrop below its committed value.
//
// Each program additionally runs the campaign stratified under the
// default bitlive plan (same slot stream, masked stratum thinned,
// inverse-probability reweighting). The published shrink ratio compares
// the weighted Wilson CI half-width against the plain Wilson half-width
// at the same executed-trial budget; -min-strat-ci-shrink gates it the
// same way the pruned-CI gate works (at least -min-strat-kernels
// programs must clear the floor).
//
// Each program also runs the campaign adaptively (-stratify-adaptive
// semantics: a pilot prefix buys a Neyman plan, the remainder is
// thinned under it, pilot trials fold into the weighted estimate). The
// adapt_ci_shrink column is the same equal-executed-budget ratio for
// the pilot-derived plan, and pilot_fraction the pilot's share of the
// executed budget. -min-adapt-ci-shrink gates it, counting only
// kernels where the adaptive shrink also matches or beats the static
// plan's — the floor the adaptive machinery must never fall below,
// since the static shape is a member of the plan family it optimizes
// over.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"trident/internal/bitlive"
	"trident/internal/fault"
	"trident/internal/progs"
	"trident/internal/stats"
	"trident/internal/telemetry"
)

// result is one program's measurement, serialized into BENCH_fi.json.
type result struct {
	Program       string  `json:"program"`
	N             int     `json:"n"`
	Seed          uint64  `json:"seed"`
	Workers       int     `json:"workers"`
	GoldenDyn     uint64  `json:"golden_dyn_instrs"`
	Interval      int     `json:"snapshot_interval"`
	Snapshots     int     `json:"snapshots"`
	SnapshotSetup float64 `json:"snapshot_setup_ms"`
	FullMs        float64 `json:"full_ms"`
	SnapshotMs    float64 `json:"snapshot_ms"`
	// FullCPUMs and SnapshotCPUMs are the same campaigns' smallest
	// process CPU times over the repeats.
	FullCPUMs     float64 `json:"full_cpu_ms"`
	SnapshotCPUMs float64 `json:"snapshot_cpu_ms"`
	// OverheadBaseMs and InstrumentedMs are the single-worker pair
	// behind the overhead measurement: the same snapshot campaign bare
	// and with every observability sink attached. Single-threaded runs
	// sidestep worker-pool scheduling jitter, which at campaign scale
	// is larger than the signal.
	OverheadBaseMs float64 `json:"overhead_base_ms"`
	InstrumentedMs float64 `json:"instrumented_ms"`
	// Speedup is snapshot replay's gain over full re-execution on the
	// same campaign in process CPU time: full_cpu_ms/snapshot_cpu_ms.
	Speedup float64 `json:"speedup"`
	// TelemetryOverhead is the fractional slowdown with metrics,
	// tracing, and a progress callback all attached:
	// instrumented_ms/overhead_base_ms - 1. Negative values are
	// measurement noise.
	TelemetryOverhead float64 `json:"telemetry_overhead"`
	Identical         bool    `json:"identical"`
	TrialsPerSecF     float64 `json:"full_trials_per_sec"`
	TrialsPerSecS     float64 `json:"snapshot_trials_per_sec"`
	// PrunedMs times the snapshot campaign re-run with bit-liveness
	// pruning (-prune-bits); its transcript participates in the identity
	// check, so the timing is only ever published for a bit-identical
	// result. BitsPrunedPct is the activation-weighted share of the
	// sampling space the analysis proves masked, and PrunedCISpeedup =
	// 1/(1-pct/100) is the executed-trial multiplier at equal Wilson CI
	// width — the honest speedup metric, independent of how cheap the
	// skipped trials happened to be. A fully-masked workload (pct == 100,
	// nothing executes) reports 0: the multiplier is undefined there, and
	// +Inf would make encoding/json reject the whole results file.
	PrunedMs        float64 `json:"pruned_ms"`
	TrialsPerSecP   float64 `json:"pruned_trials_per_sec"`
	BitsPrunedPct   float64 `json:"bits_pruned_pct"`
	PrunedCISpeedup float64 `json:"pruned_ci_speedup"`
	// StratExecuted of N drawn slots survived the default stratification
	// plan's thinning; StratWeightedSDC is the Horvitz-Thompson SDC
	// estimate over all N slots and StratCIHalf its weighted Wilson 95%
	// half-width at effective sample size StratEffN. StratEqualExecCIHalf
	// is the plain Wilson half-width a uniform campaign would report for
	// the same executed budget, and StratCIShrink their ratio — above 1,
	// stratification buys a tighter interval per executed trial.
	StratExecuted        int     `json:"strat_executed"`
	StratWeightedSDC     float64 `json:"strat_weighted_sdc"`
	StratCIHalf          float64 `json:"strat_ci_half"`
	StratEqualExecCIHalf float64 `json:"strat_equal_exec_ci_half"`
	StratCIShrink        float64 `json:"strat_ci_shrink"`
	StratEffN            float64 `json:"strat_eff_n"`
	// AdaptExecuted of N drawn slots survived the adaptive campaign
	// (pilot trials included); PilotExecuted of them were pilot trials
	// and PilotFraction is their share of the executed budget — the
	// overhead spent buying the plan. AdaptCIShrink mirrors
	// StratCIShrink for the pilot-derived plan; the -min-adapt-ci-shrink
	// gate requires it to match or beat the static plan's shrink.
	AdaptExecuted        int     `json:"adapt_executed"`
	PilotExecuted        int     `json:"pilot_executed"`
	PilotFraction        float64 `json:"pilot_fraction"`
	AdaptWeightedSDC     float64 `json:"adapt_weighted_sdc"`
	AdaptCIHalf          float64 `json:"adapt_ci_half"`
	AdaptEqualExecCIHalf float64 `json:"adapt_equal_exec_ci_half"`
	AdaptCIShrink        float64 `json:"adapt_ci_shrink"`
	AdaptEffN            float64 `json:"adapt_eff_n"`
	AdaptPlan            string  `json:"adapt_plan"`
	OutcomeSummary       string  `json:"outcomes"`
	// OverheadBaseCPUMs and InstrumentedCPUMs are the same pair's median
	// process CPU times (user plus system), and TelemetryOverheadCPU the
	// median of the per-pair instrumented/bare CPU-time ratios, minus 1.
	// CPU time leaves out steal, so these are what the overhead gate
	// reads; the wall-time overhead fields stay for comparison with older
	// results.
	OverheadBaseCPUMs    float64 `json:"overhead_base_cpu_ms"`
	InstrumentedCPUMs    float64 `json:"instrumented_cpu_ms"`
	TelemetryOverheadCPU float64 `json:"telemetry_overhead_cpu"`
	// overheadRatios holds the per-pair CPU-time ratios, pooled across
	// programs by the gate.
	overheadRatios []float64
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fibench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fibench", flag.ContinueOnError)
	programs := fs.String("programs", "pathfinder,nw,sad,rgb2gray,nibblepack,boxblur", "comma-separated benchmark names")
	n := fs.Int("n", 400, "injections per campaign")
	seed := fs.Uint64("seed", 7, "deterministic seed (same for both paths)")
	workers := fs.Int("workers", 4, "parallel injection workers")
	interval := fs.Int("interval", fault.DefaultSnapshotInterval, "snapshot interval in dynamic instructions")
	repeats := fs.Int("repeats", 1, "measure each campaign this many times and keep the fastest (the overhead pair: run this many interleaved pairs)")
	maxOverhead := fs.Float64("max-overhead", 0, "fail if telemetry overhead exceeds this fraction (0 disables the gate)")
	minSnapshot := fs.Float64("min-snapshot-speedup", 0, "fail if the geomean snapshot-vs-full speedup falls below this factor (0 disables the gate)")
	minPrunedCI := fs.Float64("min-pruned-ci-speedup", 0, "fail unless at least -min-pruned-kernels programs reach this pruned equal-CI speedup (0 disables the gate)")
	minPrunedKernels := fs.Int("min-pruned-kernels", 3, "with -min-pruned-ci-speedup: how many programs must clear the floor")
	minStratShrink := fs.Float64("min-strat-ci-shrink", 0, "fail unless at least -min-strat-kernels programs reach this stratified CI shrink at equal executed trials (0 disables the gate)")
	minStratKernels := fs.Int("min-strat-kernels", 3, "with -min-strat-ci-shrink: how many programs must clear the floor")
	minAdaptShrink := fs.Float64("min-adapt-ci-shrink", 0, "fail unless at least -min-adapt-kernels programs reach this adaptive CI shrink at equal executed trials while matching or beating the static plan's shrink (0 disables the gate)")
	minAdaptKernels := fs.Int("min-adapt-kernels", 3, "with -min-adapt-ci-shrink: how many programs must clear the floor")
	baseline := fs.String("baseline", "", "committed results file (BENCH_fi.json): fail if a program's snapshot speedup falls more than maxSpeedupDrop below its committed value (empty disables the gate)")
	out := fs.String("out", "BENCH_fi.json", "output JSON path, or - for stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *interval <= 0 {
		return fmt.Errorf("-interval must be positive (the full re-execution baseline always runs)")
	}
	if *repeats < 1 {
		return fmt.Errorf("-repeats must be at least 1")
	}

	var results []result
	for _, name := range strings.Split(*programs, ",") {
		name = strings.TrimSpace(name)
		r, err := benchProgram(name, *n, *seed, *workers, *interval, *repeats)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(os.Stderr,
			"%-12s golden=%-6d snapshots=%-3d full=%7.1fms snapshot=%7.1fms (cpu) pruned=%7.1fms speedup=%.2fx pruned=%.1f%% ci-speedup=%.2fx strat=%d/%d shrink=%.3fx adapt=%d/%d shrink=%.3fx pilot=%.0f%% telemetry=%+.1f%% identical=%v\n",
			r.Program, r.GoldenDyn, r.Snapshots, r.FullCPUMs, r.SnapshotCPUMs, r.PrunedMs,
			r.Speedup, r.BitsPrunedPct, r.PrunedCISpeedup,
			r.StratExecuted, r.N, r.StratCIShrink,
			r.AdaptExecuted, r.N, r.AdaptCIShrink, r.PilotFraction*100,
			r.TelemetryOverheadCPU*100, r.Identical)
		if !r.Identical {
			return fmt.Errorf("%s: campaigns diverged between execution paths", name)
		}
		results = append(results, r)
	}

	// The snapshot gate uses the geometric mean so every kernel weighs
	// equally; an arithmetic mean would let one long kernel mask a
	// regression on the short ones.
	logSum := 0.0
	for _, r := range results {
		logSum += math.Log(r.Speedup)
	}
	geomean := math.Exp(logSum / float64(len(results)))
	fmt.Fprintf(os.Stderr, "snapshot speedup geomean: %.2fx\n", geomean)
	if *minSnapshot > 0 && geomean < *minSnapshot {
		return fmt.Errorf("snapshot speedup geomean %.2fx below the %.2fx floor",
			geomean, *minSnapshot)
	}
	if *baseline != "" {
		if err := checkBaseline(results, *baseline); err != nil {
			return err
		}
	}

	// The pruning gate counts kernels, not a mean: pruning targets
	// narrow-output workloads specifically, and the paper kernels'
	// near-zero fractions are expected, not regressions.
	if *minPrunedCI > 0 {
		cleared := 0
		for _, r := range results {
			if r.PrunedCISpeedup >= *minPrunedCI {
				cleared++
			}
		}
		fmt.Fprintf(os.Stderr, "pruned equal-CI speedup ≥ %.2fx on %d/%d kernels\n",
			*minPrunedCI, cleared, len(results))
		if cleared < *minPrunedKernels {
			return fmt.Errorf("only %d kernels reach the %.2fx pruned equal-CI speedup floor (need %d)",
				cleared, *minPrunedCI, *minPrunedKernels)
		}
	}

	// The stratified gate mirrors the pruning gate: count kernels clearing
	// the shrink floor. Stratification pays where the masked stratum is
	// large (the narrow-output kernels); the paper kernels hover near a
	// shrink of 1 by design, which is correct, not a regression.
	if *minStratShrink > 0 {
		cleared := 0
		for _, r := range results {
			if r.StratCIShrink >= *minStratShrink {
				cleared++
			}
		}
		fmt.Fprintf(os.Stderr, "stratified equal-executed CI shrink ≥ %.2fx on %d/%d kernels\n",
			*minStratShrink, cleared, len(results))
		if cleared < *minStratKernels {
			return fmt.Errorf("only %d kernels reach the %.2fx stratified CI-shrink floor (need %d)",
				cleared, *minStratShrink, *minStratKernels)
		}
	}

	// The adaptive gate adds one condition to the stratified gate's
	// shape: a kernel only counts if the pilot-derived plan also matched
	// or beat the static plan's shrink. The static shape is a member of
	// the family the scale optimization searches, so losing to it means
	// the pilot evidence misled the allocator — exactly the regression
	// this gate exists to catch. Ties count: on kernels where the pilot
	// finds no exploitable variance spread, falling back to the static
	// shape is the correct answer.
	if *minAdaptShrink > 0 {
		cleared := 0
		for _, r := range results {
			if r.AdaptCIShrink >= *minAdaptShrink && r.AdaptCIShrink >= r.StratCIShrink-1e-9 {
				cleared++
			}
		}
		fmt.Fprintf(os.Stderr, "adaptive equal-executed CI shrink ≥ %.2fx (and ≥ static) on %d/%d kernels\n",
			*minAdaptShrink, cleared, len(results))
		if cleared < *minAdaptKernels {
			return fmt.Errorf("only %d kernels reach the %.2fx adaptive CI-shrink floor while matching the static plan (need %d)",
				cleared, *minAdaptShrink, *minAdaptKernels)
		}
	}

	// Gate on the median per-pair CPU-time ratio, pooled across programs:
	// a real overhead slows the instrumented side of every pair, while a
	// noisy pair moves only its own ratio, which the median discards.
	var ratios []float64
	for _, r := range results {
		ratios = append(ratios, r.overheadRatios...)
	}
	overall := median(ratios) - 1
	fmt.Fprintf(os.Stderr, "telemetry overhead overall (median of %d CPU-time pairs): %+.1f%%\n", len(ratios), overall*100)
	if *maxOverhead > 0 && overall > *maxOverhead {
		return fmt.Errorf("telemetry overhead %.1f%% exceeds the %.1f%% budget",
			overall*100, *maxOverhead*100)
	}

	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// maxSpeedupDrop is how far below its committed value a program's
// snapshot speedup may fall under -baseline. make check's gate times
// the campaign BENCH_fi.json records (pathfinder, n 400), best of 27
// process-CPU-time runs, against the committed best-of-3 value from
// make bench. Thirty-two gate runs on a shared 2-core VM against a
// committed 4.57x measured 0.68–1.01x of it (median 0.89x), four of
// them below 0.75x; the same command on the tree before the gate moved
// to n 400 read a median 0.85x in twelve runs, two below. So the margin
// cannot be tightened, and the gap left is not the trial count: it is
// the committed value's own noise (best of 3 on a loaded machine).
const maxSpeedupDrop = 0.25

// checkBaseline holds every measured program to its committed snapshot
// speedup in the results file at path: the speedup may fall at most
// maxSpeedupDrop below it. The geomean floor lets one kernel slide far
// while the mean stays clear; this gate does not. A program missing
// from the file is reported and not gated.
func checkBaseline(results []result, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var committed []result
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := make(map[string]float64, len(committed))
	for _, c := range committed {
		want[c.Program] = c.Speedup
	}
	var failed []string
	for _, r := range results {
		c, ok := want[r.Program]
		if !ok {
			fmt.Fprintf(os.Stderr, "%s: no committed speedup in %s; not gated\n", r.Program, path)
			continue
		}
		floor := c * (1 - maxSpeedupDrop)
		fmt.Fprintf(os.Stderr, "%s: snapshot speedup %.2fx, committed %.2fx, floor %.2fx\n",
			r.Program, r.Speedup, c, floor)
		if r.Speedup < floor {
			failed = append(failed, fmt.Sprintf("%s %.2fx < %.2fx", r.Program, r.Speedup, floor))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("snapshot speedup more than %.0f%% below %s: %s",
			maxSpeedupDrop*100, path, strings.Join(failed, ", "))
	}
	return nil
}

// timeCampaign runs inj's n-trial campaign repeats times — campaigns are
// deterministic, so every run produces the identical result — and
// returns the result with the smallest process CPU time (user plus
// system, over all threads) and the smallest wall time. The speedup gate
// reads the CPU times: on a shared VM steal moves wall time by 10–35%
// from run to run, and CPU time leaves it out, as in the overhead gate.
func timeCampaign(inj *fault.Injector, n, repeats int) (res *fault.CampaignResult, cpu, wall time.Duration, err error) {
	for i := 0; i < repeats; i++ {
		r, w, c, err := timeRun(inj, n)
		if err != nil {
			return nil, 0, 0, err
		}
		if res == nil || c < cpu {
			cpu = c
		}
		if res == nil || w < wall {
			wall = w
		}
		res = r
	}
	return res, cpu, wall, nil
}

// pairTiming is the overhead measurement of one program: the bare and
// instrumented campaigns timed in interleaved pairs.
type pairTiming struct {
	// bareWall and instWall are each side's fastest wall time.
	bareWall, instWall time.Duration
	// bareCPU and instCPU are each side's median process CPU time.
	bareCPU, instCPU time.Duration
	// ratios holds each pair's instrumented/bare CPU-time ratio.
	ratios []float64
}

// compareCampaigns times the bare and instrumented snapshot engines in
// repeats interleaved pairs, after one untimed warmup of each, and
// alternates which side of a pair runs first so neither always inherits
// the other's heap and GC state. Every run is timed twice: in wall time,
// and in process CPU time (user plus system, over all threads). On a
// shared VM, steal moves wall time by 10–35% from run to run; CPU time
// leaves it out, so the overhead gate reads the median per-pair CPU-time
// ratio. Returns the (identical) campaign results and the timings.
func compareCampaigns(bare, inst *fault.Injector, n, repeats int) (bres, ires *fault.CampaignResult, pt pairTiming, err error) {
	if _, err = bare.CampaignRandom(context.Background(), n); err != nil {
		return
	}
	if _, err = inst.CampaignRandom(context.Background(), n); err != nil {
		return
	}
	var bareCPU, instCPU []float64
	for i := 0; i < repeats; i++ {
		var bw, iw, bc, ic time.Duration
		if i%2 == 0 {
			if bres, bw, bc, err = timeRun(bare, n); err == nil {
				ires, iw, ic, err = timeRun(inst, n)
			}
		} else {
			if ires, iw, ic, err = timeRun(inst, n); err == nil {
				bres, bw, bc, err = timeRun(bare, n)
			}
		}
		if err != nil {
			return
		}
		if i == 0 || bw < pt.bareWall {
			pt.bareWall = bw
		}
		if i == 0 || iw < pt.instWall {
			pt.instWall = iw
		}
		bareCPU = append(bareCPU, bc.Seconds())
		instCPU = append(instCPU, ic.Seconds())
		pt.ratios = append(pt.ratios, ic.Seconds()/bc.Seconds())
	}
	pt.bareCPU = time.Duration(median(bareCPU) * float64(time.Second))
	pt.instCPU = time.Duration(median(instCPU) * float64(time.Second))
	return
}

// timeRun runs inj's n-trial campaign once, from a freshly collected
// heap so no run pays for an earlier run's garbage, and returns its wall
// time and the process CPU time it used.
func timeRun(inj *fault.Injector, n int) (*fault.CampaignResult, time.Duration, time.Duration, error) {
	runtime.GC()
	cpu0, start := cpuTime(), time.Now()
	r, err := inj.CampaignRandom(context.Background(), n)
	return r, time.Since(start), cpuTime() - cpu0, err
}

// cpuTime is the CPU time the process has used, user and system, over
// all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the median of xs (the mean of the middle pair for an
// even count), sorting xs in place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	k := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[k]
	}
	return (xs[k-1] + xs[k]) / 2
}

func benchProgram(name string, n int, seed uint64, workers int, interval int, repeats int) (result, error) {
	p, err := progs.ByName(name)
	if err != nil {
		return result{}, err
	}
	m := p.Build()

	full, err := fault.New(m, fault.Options{Seed: seed, Workers: workers, SnapshotInterval: -1})
	if err != nil {
		return result{}, err
	}
	if k := full.Snapshots(); k != 0 {
		return result{}, fmt.Errorf("full re-execution baseline holds %d snapshots", k)
	}
	fres, fullCPU, fullDur, err := timeCampaign(full, n, repeats)
	if err != nil {
		return result{}, err
	}

	setupStart := time.Now()
	snap, err := fault.New(m, fault.Options{
		Seed: seed, Workers: workers, SnapshotInterval: interval,
	})
	if err != nil {
		return result{}, err
	}
	setupDur := time.Since(setupStart)
	sres, snapCPU, snapDur, err := timeCampaign(snap, n, repeats)
	if err != nil {
		return result{}, err
	}

	// The pruned column re-runs the snapshot campaign with bit-liveness
	// pruning: provably-masked bits classify Benign without executing.
	// Exact reweighting makes the transcript bit-identical, which the
	// identity check below re-verifies on every bench run.
	pruned, err := fault.New(m, fault.Options{
		Seed: seed, Workers: workers, SnapshotInterval: interval,
		PruneBits: true,
	})
	if err != nil {
		return result{}, err
	}
	pres, _, pruDur, err := timeCampaign(pruned, n, repeats)
	if err != nil {
		return result{}, err
	}
	prunedFrac := pruned.PrunedFraction()

	// The overhead measurement runs its own single-worker pair: worker-
	// pool scheduling jitter at campaign scale is several percent, far
	// above the signal, while single-threaded runs are stable enough to
	// resolve it. The instrumented engine attaches every observability
	// sink at once — metrics registry, JSONL trace, and a throttled
	// progress meter — so the measured overhead is an upper bound on
	// any real configuration.
	obare, err := fault.New(m, fault.Options{
		Seed: seed, Workers: 1, SnapshotInterval: interval,
	})
	if err != nil {
		return result{}, err
	}
	meter := telemetry.NewProgressMeter(io.Discard, 0)
	inst, err := fault.New(m, fault.Options{
		Seed: seed, Workers: 1, SnapshotInterval: interval,
		Metrics:    telemetry.NewRegistry(),
		Trace:      telemetry.NewTrace(io.Discard),
		OnProgress: func(p fault.Progress) { meter.Update(p.String) },
	})
	if err != nil {
		return result{}, err
	}
	_, ires, pt, err := compareCampaigns(obare, inst, n, repeats)
	if err != nil {
		return result{}, err
	}

	// The stratified campaign draws the same slot stream under the
	// default plan (masked stratum thinned to a confirmation sliver) and
	// reweights by inverse inclusion probability. It is compared at equal
	// *executed* trials: the weighted Wilson half-width against the plain
	// half-width a uniform campaign would report for the executed budget.
	// It runs after the overhead pair above: that single-threaded
	// measurement resolves a ~3% signal, and the extra campaign's heap
	// and GC wake would sit right on top of it.
	plan := bitlive.DefaultPlan()
	strat, err := fault.New(m, fault.Options{
		Seed: seed, Workers: workers, SnapshotInterval: interval,
		Stratify: &plan,
	})
	if err != nil {
		return result{}, err
	}
	stratRes, err := strat.CampaignStratified(context.Background(), n)
	if err != nil {
		return result{}, err
	}

	// The adaptive campaign replaces the fixed plan with a pilot-derived
	// one: a static-shape pilot over the slot prefix estimates per-stratum
	// SDC rates, Neyman allocation turns them into thinning rates, and the
	// remaining slots run under the derived plan. Same equal-executed
	// comparison as the stratified column; the pilot trials count against
	// the executed budget, so the shrink already prices in their cost.
	adapt, err := fault.New(m, fault.Options{
		Seed: seed, Workers: workers, SnapshotInterval: interval,
		Adaptive: &fault.AdaptiveConfig{},
	})
	if err != nil {
		return result{}, err
	}
	adaptRes, err := adapt.CampaignAdaptive(context.Background(), n)
	if err != nil {
		return result{}, err
	}

	r := result{
		Program:              name,
		N:                    n,
		Seed:                 seed,
		Workers:              workers,
		GoldenDyn:            full.GoldenDynInstrs(),
		Interval:             interval,
		Snapshots:            snap.Snapshots(),
		SnapshotSetup:        float64(setupDur.Microseconds()) / 1000,
		FullMs:               float64(fullDur.Microseconds()) / 1000,
		SnapshotMs:           float64(snapDur.Microseconds()) / 1000,
		FullCPUMs:            float64(fullCPU.Microseconds()) / 1000,
		SnapshotCPUMs:        float64(snapCPU.Microseconds()) / 1000,
		OverheadBaseMs:       float64(pt.bareWall.Microseconds()) / 1000,
		InstrumentedMs:       float64(pt.instWall.Microseconds()) / 1000,
		Speedup:              fullCPU.Seconds() / snapCPU.Seconds(),
		TelemetryOverhead:    pt.instWall.Seconds()/pt.bareWall.Seconds() - 1,
		OverheadBaseCPUMs:    float64(pt.bareCPU.Microseconds()) / 1000,
		InstrumentedCPUMs:    float64(pt.instCPU.Microseconds()) / 1000,
		TelemetryOverheadCPU: median(slices.Clone(pt.ratios)) - 1,
		overheadRatios:       pt.ratios,
		Identical: identical(fres, sres) && identical(sres, ires) &&
			identical(sres, pres),
		TrialsPerSecF:        float64(n) / fullDur.Seconds(),
		TrialsPerSecS:        float64(n) / snapDur.Seconds(),
		PrunedMs:             float64(pruDur.Microseconds()) / 1000,
		TrialsPerSecP:        float64(n) / pruDur.Seconds(),
		BitsPrunedPct:        prunedFrac * 100,
		PrunedCISpeedup:      ciSpeedup(prunedFrac),
		StratExecuted:        stratRes.ExecutedN(),
		StratWeightedSDC:     stratRes.WeightedSDC(),
		StratCIHalf:          stratRes.WeightedErrorBar95(),
		StratEqualExecCIHalf: stats.ProportionCI95(fres.SDCProb(), stratRes.ExecutedN()),
		StratEffN:            stratRes.EffectiveN(),
		AdaptExecuted:        adaptRes.ExecutedN(),
		PilotExecuted:        adaptRes.PilotExecuted,
		PilotFraction:        adaptRes.PilotFraction(),
		AdaptWeightedSDC:     adaptRes.WeightedSDC(),
		AdaptCIHalf:          adaptRes.WeightedErrorBar95(),
		AdaptEqualExecCIHalf: stats.ProportionCI95(fres.SDCProb(), adaptRes.ExecutedN()),
		AdaptEffN:            adaptRes.EffectiveN(),
		AdaptPlan:            adaptRes.Plan.String(),
		OutcomeSummary:       summarize(fres),
	}
	if r.StratCIHalf > 0 {
		r.StratCIShrink = r.StratEqualExecCIHalf / r.StratCIHalf
	}
	if r.AdaptCIHalf > 0 {
		r.AdaptCIShrink = r.AdaptEqualExecCIHalf / r.AdaptCIHalf
	}
	return r, nil
}

// ciSpeedup returns the equal-CI executed-trial multiplier 1/(1-f) for
// pruned fraction f, reporting the 0 sentinel at f >= 1 where the ratio
// is undefined and its +Inf value would poison the JSON results file.
func ciSpeedup(f float64) float64 {
	if f >= 1 {
		return 0
	}
	return 1 / (1 - f)
}

// identical reports whether two campaigns produced the same trials in the
// same order with the same classifications — the bit-identity contract
// the differential test suite enforces, re-checked here on every bench
// run so the published speedup is never measured against a wrong result.
func identical(a, b *fault.CampaignResult) bool {
	if len(a.Trials) != len(b.Trials) || len(a.Errs) != len(b.Errs) {
		return false
	}
	for i := range a.Trials {
		ta, tb := a.Trials[i], b.Trials[i]
		if ta.Instr != tb.Instr || ta.Instance != tb.Instance || ta.Bit != tb.Bit ||
			ta.Outcome != tb.Outcome || ta.CrashLatency != tb.CrashLatency {
			return false
		}
	}
	return true
}

func summarize(res *fault.CampaignResult) string {
	var b strings.Builder
	for _, o := range fault.AllOutcomes {
		if res.Counts[o] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", o, res.Counts[o])
	}
	return b.String()
}
