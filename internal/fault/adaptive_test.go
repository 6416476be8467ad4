package fault

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"trident/internal/bitlive"
)

func adaptInjector(t *testing.T, name string, opts Options) *Injector {
	t.Helper()
	return stratInjector(t, name, opts)
}

// designOf lays out inj's sampling design of mode m over the n slots
// of its campaign stream.
func designOf(t *testing.T, inj *Injector, m mode, n int) *design {
	t.Helper()
	d, err := inj.newDesign(m, n)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func sameTrial(a, b Injection) bool {
	return a.Instr.Pos() == b.Instr.Pos() && a.Instance == b.Instance &&
		a.Bit == b.Bit && a.Outcome == b.Outcome
}

// TestAdaptiveBudgetContract pins the pilot accounting: across kernels
// and budgets, executed(pilot) + executed(main) never exceeds the slot
// budget, the pilot is exactly the pilot plan's kept subset of the
// configured prefix, and the weights are 1/q of the pilot plan for
// pilot trials and 1/q of the derived plan for main-phase trials.
func TestAdaptiveBudgetContract(t *testing.T) {
	for _, kernel := range []string{"rgb2gray", "nibblepack"} {
		for _, n := range []int{80, 250} {
			t.Run(fmt.Sprintf("%s/n=%d", kernel, n), func(t *testing.T) {
				cfg := AdaptiveConfig{}
				inj := adaptInjector(t, kernel, Options{Seed: 11, Adaptive: &cfg})
				ar, err := inj.CampaignAdaptive(context.Background(), n)
				if err != nil {
					t.Fatal(err)
				}
				pn := pilotLen(n, DefaultPilotFraction)
				pplan := pilotPlan(cfg.withDefaults())
				pilotKept := designOf(t, inj, modeAdaptive, n).thin(pplan, 0, pn)
				if ar.PilotSlots != pn || ar.PilotExecuted != len(pilotKept) {
					t.Fatalf("pilot ran %d of %d prefix slots, want the %d pilot-plan-kept",
						ar.PilotExecuted, ar.PilotSlots, len(pilotKept))
				}
				if ar.SlotN != n {
					t.Fatalf("SlotN = %d, want %d", ar.SlotN, n)
				}
				if ar.ExecutedN() > n {
					t.Fatalf("executed %d trials of a %d-slot budget", ar.ExecutedN(), n)
				}
				if main := ar.ExecutedN() - ar.PilotExecuted; main < 0 || ar.PilotExecuted+main > n {
					t.Fatalf("pilot %d + main %d exceeds budget %d", ar.PilotExecuted, main, n)
				}
				for i, w := range ar.Weights {
					if i < ar.PilotExecuted {
						if want := 1 / pplan.Rate(ar.Strata[i]); w != want {
							t.Fatalf("pilot trial %d has weight %v, want %v", i, w, want)
						}
					} else if want := 1 / ar.Plan.Rate(ar.Strata[i]); w != want {
						t.Fatalf("main trial %d has weight %v, want %v", i, w, want)
					}
				}
				if err := ar.Plan.Validate(); err != nil {
					t.Fatalf("derived plan invalid: %v", err)
				}
				// Pilot tallies must account for every classified pilot trial.
				pilotTrials := 0
				for _, p := range ar.Pilot {
					pilotTrials += p.Trials
				}
				errored := 0
				for i := 0; i < ar.PilotExecuted; i++ {
					if ar.Trials[i].Outcome == Errored {
						errored++
					}
				}
				if pilotTrials != ar.PilotExecuted-errored {
					t.Fatalf("pilot evidence tallies %d trials, executed %d classified", pilotTrials, ar.PilotExecuted-errored)
				}
			})
		}
	}
}

// TestAdaptiveSubsetBitIdentity: the adaptive campaign's trials are the
// pilot-plan-kept prefix slots plus the plan-thinned subset of the
// remaining slots, outcome-identical to the plain campaign slot for
// slot.
func TestAdaptiveSubsetBitIdentity(t *testing.T) {
	const n, seed = 260, 42
	plain := adaptInjector(t, "rgb2gray", Options{Seed: seed})
	plainRes, err := plain.CampaignRandom(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := AdaptiveConfig{}
	adapt := adaptInjector(t, "rgb2gray", Options{Seed: seed, Adaptive: &cfg})
	ar, err := adapt.CampaignAdaptive(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	pn := pilotLen(n, DefaultPilotFraction)
	pplan := pilotPlan(cfg.withDefaults())
	strata := designOf(t, adapt, modeAdaptive, n).strata
	want := make([]int, 0, n)
	for i := 0; i < pn; i++ {
		q := pplan.Rate(strata[i])
		if q >= 1 || slotU(seed, i) < q {
			want = append(want, i)
		}
	}
	for i := pn; i < n; i++ {
		q := ar.Plan.Rate(strata[i])
		if q >= 1 || slotU(seed, i) < q {
			want = append(want, i)
		}
	}
	if len(want) != ar.ExecutedN() {
		t.Fatalf("executed %d trials, expected subset has %d", ar.ExecutedN(), len(want))
	}
	for j, slot := range want {
		if !sameTrial(ar.Trials[j], plainRes.Trials[slot]) {
			t.Fatalf("trial %d != plain slot %d: %+v vs %+v", j, slot, ar.Trials[j], plainRes.Trials[slot])
		}
	}
}

// TestAdaptiveUnbiasedOnUniformEvidence: when the campaign cannot thin
// (every stratum carries SDC evidence at similar rates, or nothing does)
// the estimate must stay in agreement with the plain campaign; here we
// only require the weighted estimate to stay a proper probability and
// the interval to be positive — the rigorous unbiasedness sweep lives in
// the crosscheck oracle.
func TestAdaptiveEstimateSanity(t *testing.T) {
	const n = 200
	cfg := AdaptiveConfig{}
	inj := adaptInjector(t, "boxblur", Options{Seed: 17, Adaptive: &cfg})
	ar, err := inj.CampaignAdaptive(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	sdc := ar.WeightedSDC()
	if sdc < 0 || sdc > 1 || math.IsNaN(sdc) {
		t.Fatalf("weighted SDC = %v", sdc)
	}
	if bar := ar.WeightedErrorBar95(); !(bar > 0) || bar > 1 {
		t.Fatalf("weighted error bar = %v", bar)
	}
	if f := ar.PilotFraction(); f <= 0 || f > 1 {
		t.Fatalf("pilot fraction = %v", f)
	}
}

// TestAdaptiveCheckpointResume: campaigns interrupted mid-pilot and
// mid-main both resume from their log to a transcript identical to the
// uninterrupted run — the plan is re-derived from the replayed pilot, so
// nothing about the adaptive machinery depends on staying alive.
func TestAdaptiveCheckpointResume(t *testing.T) {
	const n, seed = 150, 5
	cfg := AdaptiveConfig{}
	opts := Options{Seed: seed, Adaptive: &cfg}

	whole := adaptInjector(t, "boxblur", opts)
	want, err := whole.CampaignAdaptive(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	pn := pilotLen(n, DefaultPilotFraction)

	for _, tc := range []struct {
		name     string
		cancelAt int
	}{
		{"mid-pilot", pn / 2},
		{"mid-main", pn + 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "adapt.ckpt")
			func() {
				inj := adaptInjector(t, "boxblur", opts)
				inj.opts.Workers = 1
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				seen := 0
				inj.opts.OnProgress = func(Progress) {
					seen++
					if seen == tc.cancelAt {
						cancel()
					}
				}
				if _, err := inj.Campaign(ctx, n, Run{Checkpoint: path}); err == nil {
					t.Fatal("cancelled campaign returned no error")
				}
			}()
			resumed := adaptInjector(t, "boxblur", opts)
			got, err := resumed.Campaign(context.Background(), n, Run{Checkpoint: path})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Trials) != len(want.Trials) {
				t.Fatalf("resumed %d trials, want %d", len(got.Trials), len(want.Trials))
			}
			for i := range want.Trials {
				if !sameTrial(got.Trials[i], want.Trials[i]) {
					t.Fatalf("trial %d drifted across resume", i)
				}
			}
			if got.Plan != want.Plan {
				t.Fatalf("plan drifted across resume: %v vs %v", got.Plan, want.Plan)
			}
			if got.WeightedSDC() != want.WeightedSDC() || got.WeightedErrorBar95() != want.WeightedErrorBar95() {
				t.Errorf("weighted stats drifted across resume")
			}

			// Replay-only reconstruction agrees too.
			rec, missing, err := resumed.FromCheckpoint(n, path)
			if err != nil {
				t.Fatal(err)
			}
			if missing != 0 {
				t.Fatalf("reconstruction missing %d records", missing)
			}
			if rec.WeightedSDC() != want.WeightedSDC() {
				t.Errorf("reconstructed WeightedSDC %v != %v", rec.WeightedSDC(), want.WeightedSDC())
			}
		})
	}
}

// TestAdaptiveShardMerge: a server job's shards multiply its trial
// workers, and its result is replayed from the job's one log on the
// same injector. Run that way, for several shard counts, an adaptive
// campaign re-derives the campaign plan from its log and replays into
// the one-worker campaign bit for bit.
func TestAdaptiveShardMerge(t *testing.T) {
	const (
		n    = 160
		seed = 23
	)
	cfg := AdaptiveConfig{}
	opts := Options{Seed: seed, Adaptive: &cfg, Workers: 1}
	want, err := adaptInjector(t, "rgb2gray", opts).CampaignAdaptive(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3} {
		o := opts
		o.Workers = 2 * shards
		inj := adaptInjector(t, "rgb2gray", o)
		path := filepath.Join(t.TempDir(), "trials.jsonl")
		live, err := inj.Campaign(context.Background(), n, Run{Checkpoint: path})
		if err != nil {
			t.Fatal(err)
		}
		if live.PilotExecuted != want.PilotExecuted || live.ExecutedN() != want.ExecutedN() {
			t.Fatalf("%d shards: executed %d (pilot %d), one worker %d (pilot %d)",
				shards, live.ExecutedN(), live.PilotExecuted, want.ExecutedN(), want.PilotExecuted)
		}
		got, missing, err := inj.FromCheckpoint(n, path)
		if err != nil {
			t.Fatal(err)
		}
		if missing != 0 {
			t.Fatalf("%d shards: log missing %d records", shards, missing)
		}
		if got.Plan != want.Plan {
			t.Fatalf("%d shards: re-derived plan %v != campaign plan %v", shards, got.Plan, want.Plan)
		}
		if len(got.Trials) != len(want.Trials) {
			t.Fatalf("%d shards: replayed %d trials, want %d", shards, len(got.Trials), len(want.Trials))
		}
		for i := range want.Trials {
			if !sameTrial(got.Trials[i], want.Trials[i]) {
				t.Fatalf("%d shards: trial %d drifted across the log replay", shards, i)
			}
		}
		if got.WeightedSDC() != want.WeightedSDC() || got.WeightedErrorBar95() != want.WeightedErrorBar95() {
			t.Errorf("%d shards: weighted stats drifted across the log replay", shards)
		}
	}
}

// TestAdaptiveCheckpointFencing: adaptive logs refuse resumes under a
// different kind or a different adaptive configuration, and plain or
// stratified campaigns refuse adaptive logs.
func TestAdaptiveCheckpointFencing(t *testing.T) {
	const n, seed = 60, 9
	path := filepath.Join(t.TempDir(), "adapt.ckpt")
	cfg := AdaptiveConfig{}
	a := adaptInjector(t, "nibblepack", Options{Seed: seed, Adaptive: &cfg})
	if _, err := a.Campaign(context.Background(), n, Run{Checkpoint: path}); err != nil {
		t.Fatal(err)
	}

	// Different pilot fraction → different stream split → refused.
	other := AdaptiveConfig{PilotFraction: 0.4}
	b := adaptInjector(t, "nibblepack", Options{Seed: seed, Adaptive: &other})
	if _, err := b.Campaign(context.Background(), n, Run{Checkpoint: path}); err == nil ||
		!strings.Contains(err.Error(), "stratification") {
		t.Fatalf("cross-config resume: want stratification mismatch, got %v", err)
	}

	// Plain resume of an adaptive log refused (kind mismatch).
	plain := adaptInjector(t, "nibblepack", Options{Seed: seed})
	if _, err := plain.Campaign(context.Background(), n, Run{Checkpoint: path, Resume: true}); err == nil {
		t.Fatal("plain resume of adaptive checkpoint succeeded")
	}

	// Stratified resume of an adaptive log refused.
	plan := bitlive.DefaultPlan()
	strat := adaptInjector(t, "nibblepack", Options{Seed: seed, Stratify: &plan})
	if _, err := strat.Campaign(context.Background(), n, Run{Checkpoint: path}); err == nil {
		t.Fatal("stratified resume of adaptive checkpoint succeeded")
	}

	// Matched resume still replays cleanly.
	c := adaptInjector(t, "nibblepack", Options{Seed: seed, Adaptive: &cfg})
	if _, err := c.Campaign(context.Background(), n, Run{Checkpoint: path}); err != nil {
		t.Fatalf("matched adaptive resume failed: %v", err)
	}
}

// TestAdaptiveFromCheckpointRequiresPilot: a log whose pilot prefix is
// incomplete cannot yield a plan, so replay-only reconstruction degrades
// to the pilot-plan salvage (every recorded trial at 1/q of the pilot
// plan, absent pilot-kept slots counted missing) instead of fabricating
// a plan from partial evidence.
func TestAdaptiveFromCheckpointRequiresPilot(t *testing.T) {
	const n, seed = 90, 31
	cfg := AdaptiveConfig{}
	inj := adaptInjector(t, "rgb2gray", Options{Seed: seed, Adaptive: &cfg})
	path := filepath.Join(t.TempDir(), "adapt.ckpt")
	full, err := inj.Campaign(context.Background(), n, Run{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	// Keep every other pilot record and no main record: the pilot prefix
	// has holes.
	meta, recs, _, err := loadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	pplan := pilotPlan(cfg.withDefaults())
	pilotKept := designOf(t, inj, modeAdaptive, n).thin(pplan, 0, full.PilotSlots)
	holed := make(map[TrialKey]TrialRecord)
	for i, spec := range pilotKept {
		if i%2 == 1 {
			holed[spec.key()] = recs[spec.key()]
		}
	}
	if err := writeLog(path, meta, holed); err != nil {
		t.Fatal(err)
	}
	recorded := 0
	for _, spec := range pilotKept {
		if _, ok := holed[spec.key()]; ok {
			recorded++
		}
	}
	if recorded == 0 || recorded == len(pilotKept) {
		t.Fatalf("%d of %d pilot records kept: the log must have holes", recorded, len(pilotKept))
	}

	ar, missing, err := inj.FromCheckpoint(n, path)
	if err != nil {
		t.Fatalf("incomplete pilot replay: want pilot-plan salvage, got error %v", err)
	}
	if ar.PilotExecuted != recorded || len(ar.Trials) != recorded {
		t.Fatalf("salvage replayed %d trials (pilot %d), log holds %d",
			len(ar.Trials), ar.PilotExecuted, recorded)
	}
	if missing != len(pilotKept)-recorded {
		t.Fatalf("missing = %d, want the %d absent pilot-kept slots",
			missing, len(pilotKept)-recorded)
	}
	if ar.Plan != pplan {
		t.Fatalf("salvage plan = %v, want the pilot plan %v", ar.Plan, pplan)
	}
	for i, w := range ar.Weights {
		if want := 1 / pplan.Rate(ar.Strata[i]); w != want {
			t.Fatalf("salvage weight[%d] = %v, want %v", i, w, want)
		}
	}
}

// TestAdaptiveOptionsValidation: Stratify and Adaptive are mutually
// exclusive, and broken configurations are refused at New.
func TestAdaptiveOptionsValidation(t *testing.T) {
	p := mustProg(t, "rgb2gray")
	plan := bitlive.DefaultPlan()
	if _, err := New(p.Build(), Options{Stratify: &plan, Adaptive: &AdaptiveConfig{}}); err == nil {
		t.Fatal("Stratify+Adaptive accepted")
	}
	if _, err := New(p.Build(), Options{Adaptive: &AdaptiveConfig{PilotFraction: 1.5}}); err == nil {
		t.Fatal("pilot fraction 1.5 accepted")
	}
	if _, err := New(p.Build(), Options{Adaptive: &AdaptiveConfig{RateFloor: -1}}); err == nil {
		t.Fatal("rate floor -1 accepted")
	}
	inj, err := New(p.Build(), Options{Adaptive: &AdaptiveConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inj.CampaignStratified(context.Background(), 10); err == nil {
		t.Fatal("CampaignStratified ran without a plan")
	}
	plainInj, err := New(p.Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plainInj.CampaignAdaptive(context.Background(), 10); err == nil {
		t.Fatal("CampaignAdaptive ran without Options.Adaptive")
	}
}
