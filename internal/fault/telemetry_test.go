package fault

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"trident/internal/ir"
	"trident/internal/telemetry"
)

// TestMetricsReconcileWithCampaignResult is the -metrics-out contract:
// after a campaign completes, the registry's outcome counters reconcile
// exactly with CampaignResult — trials = benign+sdc+crash+hang+detected
// +errored — and the bookkeeping counters are consistent with each
// other.
func TestMetricsReconcileWithCampaignResult(t *testing.T) {
	reg := telemetry.NewRegistry()
	inj := newInjectorOpts(t, vulnerable, Options{
		Seed:             3,
		Workers:          4,
		SnapshotInterval: 64,
		Metrics:          reg,
		TrialHook: func(target *ir.Instr, instance uint64, bit int, attempt int) error {
			if bit%13 == 5 {
				panic("chaos: simulated engine fault")
			}
			return nil
		},
	})
	const n = 200
	res, err := inj.CampaignRandom(context.Background(), n)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	snap := reg.Snapshot()

	if got := snap.Counters["fi.trials.total"]; got != n {
		t.Errorf("fi.trials.total = %d, want %d", got, n)
	}
	var outcomeSum uint64
	for _, o := range AllOutcomes {
		name := "fi.outcome." + o.String()
		got := snap.Counters[name]
		outcomeSum += got
		if int(got) != res.Counts[o] {
			t.Errorf("%s = %d, want CampaignResult count %d", name, got, res.Counts[o])
		}
	}
	if int(outcomeSum) != res.N() {
		t.Errorf("outcome counters sum to %d, want %d trials", outcomeSum, res.N())
	}
	if res.Counts[Errored] == 0 {
		t.Fatal("no Errored trials; reconciliation across all six outcomes is vacuous")
	}

	// Bookkeeping consistency: every trial executed (none replayed);
	// every trial that reached the engine — i.e. every classified one,
	// since Errored trials here panic in the hook before injection —
	// ran from either a snapshot or a cold start; attempts ≥ trials.
	if got := snap.Counters["fi.trials.executed"]; got != n {
		t.Errorf("fi.trials.executed = %d, want %d", got, n)
	}
	if got := snap.Counters["fi.trials.replayed"]; got != 0 {
		t.Errorf("fi.trials.replayed = %d, want 0", got)
	}
	classified := uint64(res.N() - res.Counts[Errored])
	if snapTrials, cold := snap.Counters["fi.replay.snapshot"], snap.Counters["fi.replay.cold"]; snapTrials+cold != classified {
		t.Errorf("replay split %d+%d != %d classified trials", snapTrials, cold, classified)
	} else if snapTrials == 0 {
		t.Error("no trial resumed from a snapshot despite SnapshotInterval=64")
	}
	if got := snap.Counters["fi.trials.attempts"]; got < n {
		t.Errorf("fi.trials.attempts = %d, want ≥ %d", got, n)
	}
	if got := snap.Counters["fi.campaigns"]; got != 1 {
		t.Errorf("fi.campaigns = %d, want 1", got)
	}
	if got := snap.Gauges["fi.workers.inflight"]; got != 0 {
		t.Errorf("fi.workers.inflight = %d after campaign end, want 0", got)
	}
	if h := snap.Histograms["fi.trial_us"]; h.Count != n {
		t.Errorf("fi.trial_us count = %d, want %d", h.Count, n)
	}
	if h := snap.Histograms["fi.golden_us"]; h.Count != 1 {
		t.Errorf("fi.golden_us count = %d, want 1", h.Count)
	}
	// The interpreter layer reports through the same registry.
	if got := snap.Counters["interp.snapshot.resumes"]; got != snap.Counters["fi.replay.snapshot"] {
		t.Errorf("interp.snapshot.resumes = %d, want fi.replay.snapshot = %d",
			got, snap.Counters["fi.replay.snapshot"])
	}
	if snap.Counters["interp.instrs"] == 0 {
		t.Error("interp.instrs = 0")
	}
}

// TestMetricsReconcileAcrossCheckpointResume: replayed trials count into
// the outcome totals (so metrics reconcile with the resumed campaign's
// CampaignResult) and are distinguished from executed ones.
func TestMetricsReconcileAcrossCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	const n = 80

	first := newInjectorOpts(t, vulnerable, Options{Seed: 5, Workers: 4})
	fres, err := first.Campaign(context.Background(), n, Run{Checkpoint: path})
	if err != nil {
		t.Fatalf("first campaign: %v", err)
	}

	reg := telemetry.NewRegistry()
	second := newInjectorOpts(t, vulnerable, Options{Seed: 5, Workers: 4, Metrics: reg})
	sres, err := second.Campaign(context.Background(), n, Run{Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if transcript(fres.CampaignResult) != transcript(sres.CampaignResult) {
		t.Fatal("resumed campaign differs from original")
	}

	snap := reg.Snapshot()
	if got := snap.Counters["fi.trials.total"]; got != n {
		t.Errorf("fi.trials.total = %d, want %d", got, n)
	}
	if got := snap.Counters["fi.trials.replayed"]; got != n {
		t.Errorf("fi.trials.replayed = %d, want %d (all trials cached)", got, n)
	}
	if got := snap.Counters["fi.trials.executed"]; got != 0 {
		t.Errorf("fi.trials.executed = %d, want 0", got)
	}
	for _, o := range AllOutcomes {
		if got := snap.Counters["fi.outcome."+o.String()]; int(got) != sres.Counts[o] {
			t.Errorf("fi.outcome.%s = %d, want %d", o, got, sres.Counts[o])
		}
	}
}

// TestProgressMonotonicUnderCancellation: the OnProgress stream must
// report monotonically non-decreasing Done and outcome counts with
// coherent snapshots even when the campaign is cancelled mid-flight,
// and the completed-prefix result can never exceed what progress
// reported.
func TestProgressMonotonicUnderCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var (
		mu       sync.Mutex
		lastDone int
		lastSum  int
		calls    int
		faults   []string
	)
	record := func(format string, args ...any) {
		faults = append(faults, fmt.Sprintf(format, args...))
	}
	inj := newInjectorOpts(t, vulnerable, Options{
		Seed:    11,
		Workers: 8,
		OnProgress: func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if p.Done != lastDone+1 {
				record("Done jumped %d -> %d", lastDone, p.Done)
			}
			sum := 0
			for _, c := range p.Counts {
				sum += c
			}
			if sum != p.Done {
				record("Counts sum %d != Done %d", sum, p.Done)
			}
			if sum < lastSum {
				record("Counts sum decreased %d -> %d", lastSum, sum)
			}
			if p.Total != 500 {
				record("Total = %d, want 500", p.Total)
			}
			lastDone, lastSum = p.Done, sum
			if p.Done == 40 {
				cancel() // cancel mid-campaign, from inside the callback
			}
		},
	})
	res, err := inj.CampaignRandom(ctx, 500)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, f := range faults {
		t.Error(f)
	}
	if calls < 40 {
		t.Errorf("progress called %d times, want ≥ 40", calls)
	}
	// The returned contiguous prefix can only contain trials that
	// reported progress.
	if res.N() > lastDone {
		t.Errorf("result N = %d exceeds last progress Done = %d", res.N(), lastDone)
	}
}

// TestProgressCompleteCampaign: an uncancelled campaign's final
// progress snapshot matches the result exactly.
func TestProgressCompleteCampaign(t *testing.T) {
	var (
		mu   sync.Mutex
		last Progress
	)
	inj := newInjectorOpts(t, vulnerable, Options{
		Seed:    2,
		Workers: 4,
		OnProgress: func(p Progress) {
			mu.Lock()
			last = p
			mu.Unlock()
		},
	})
	res, err := inj.CampaignRandom(context.Background(), 150)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if last.Done != 150 || last.Total != 150 {
		t.Errorf("final progress %d/%d, want 150/150", last.Done, last.Total)
	}
	for _, o := range AllOutcomes {
		if last.Counts[o] != res.Counts[o] {
			t.Errorf("final progress count[%s] = %d, want %d", o, last.Counts[o], res.Counts[o])
		}
	}
	if last.Elapsed <= 0 {
		t.Error("final progress Elapsed not positive")
	}
}

// TestProgressMonotonicAcrossAdaptivePhases: an adaptive campaign runs
// its pilot and main phases through one OnProgress stream, so Done and
// every outcome count stay non-decreasing across the phase boundary,
// and the final snapshot accounts for every executed trial.
func TestProgressMonotonicAcrossAdaptivePhases(t *testing.T) {
	var (
		last  Progress
		calls int
		drops []string
	)
	inj := stratInjector(t, "hotspot", Options{
		Seed:     1,
		Workers:  1,
		Adaptive: &AdaptiveConfig{},
		OnProgress: func(p Progress) {
			calls++
			if p.Done < last.Done && len(drops) < 3 {
				drops = append(drops, fmt.Sprintf("Done %d -> %d at call %d", last.Done, p.Done, calls))
			}
			for _, o := range AllOutcomes {
				if p.Counts[o] < last.Counts[o] && len(drops) < 3 {
					drops = append(drops, fmt.Sprintf("%s %d -> %d at call %d", o, last.Counts[o], p.Counts[o], calls))
				}
			}
			last = p
		},
	})
	ar, err := inj.CampaignAdaptive(context.Background(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ar.PilotExecuted == 0 || ar.PilotExecuted == ar.ExecutedN() {
		t.Fatalf("pilot ran %d of %d trials: the campaign has no second phase", ar.PilotExecuted, ar.ExecutedN())
	}
	for _, d := range drops {
		t.Errorf("progress went backwards: %s", d)
	}
	if last.Done != ar.ExecutedN() {
		t.Errorf("final progress Done = %d, want ExecutedN %d", last.Done, ar.ExecutedN())
	}
	for _, o := range AllOutcomes {
		if last.Counts[o] != ar.Counts[o] {
			t.Errorf("final progress count[%s] = %d, want %d", o, last.Counts[o], ar.Counts[o])
		}
	}
}

func TestProgressString(t *testing.T) {
	p := Progress{Done: 150, Total: 300, Elapsed: 2 * time.Second}
	p.Counts[Benign] = 70
	p.Counts[SDC] = 40
	p.Counts[Crash] = 30
	p.Counts[Errored] = 10
	s := p.String()
	for _, want := range []string{
		"fi 150/300 50%", "benign 50.0%", "sdc 28.6%", "crash 21.4%",
		"err 10", "75 trials/s", "eta 2s",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Progress.String() = %q, missing %q", s, want)
		}
	}
	if strings.Contains(s, "hang") || strings.Contains(s, "detected") {
		t.Errorf("Progress.String() = %q shows outcomes with zero count", s)
	}
}
