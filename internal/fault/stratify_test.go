package fault

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"trident/internal/bitlive"
	"trident/internal/progs"
)

func stratInjector(t *testing.T, name string, opts Options) *Injector {
	t.Helper()
	p, err := progs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := New(p.Build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func uniformPlan() *bitlive.Plan {
	var p bitlive.Plan
	for s := 0; s < bitlive.NumStrata; s++ {
		p.Rates[s] = 1
	}
	return &p
}

// TestStratifiedSubsetBitIdentity pins the determinism contract: a
// stratified campaign's executed trials are exactly the thinned subset
// of the unstratified campaign's slots — same specs, same outcomes,
// decided by the random-access inclusion hash, never by visit order.
func TestStratifiedSubsetBitIdentity(t *testing.T) {
	const n = 300
	plan := bitlive.DefaultPlan()
	plain := stratInjector(t, "rgb2gray", Options{Seed: 99})
	strat := stratInjector(t, "rgb2gray", Options{Seed: 99, Stratify: &plan})

	plainRes, err := plain.CampaignRandom(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := strat.CampaignStratified(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	if sr.SlotN != n {
		t.Fatalf("SlotN = %d, want %d", sr.SlotN, n)
	}
	if sr.ExecutedN() >= n {
		t.Fatalf("stratified campaign executed %d of %d slots: nothing thinned", sr.ExecutedN(), n)
	}
	// Recompute the expected subset over the stratified injector's own
	// spec stream (both injectors build their own module instance, so
	// trials compare by position, not pointer).
	specs := strat.sampleRandom(n)
	want := make([]int, 0, n)
	for i := range specs {
		q := plan.Rate(strat.influence.Stratum(specs[i].instr, specs[i].bit))
		if q >= 1 || slotU(99, i) < q {
			want = append(want, i)
		}
	}
	if len(want) != sr.ExecutedN() {
		t.Fatalf("executed %d trials, expected subset has %d", sr.ExecutedN(), len(want))
	}
	for j, slot := range want {
		got, exp := sr.Trials[j], plainRes.Trials[slot]
		if got.Instr.Pos() != exp.Instr.Pos() || got.Instance != exp.Instance || got.Bit != exp.Bit {
			t.Fatalf("trial %d: spec (%v,%d,%d) != slot %d's (%v,%d,%d)",
				j, got.Instr.Pos(), got.Instance, got.Bit, slot, exp.Instr.Pos(), exp.Instance, exp.Bit)
		}
		if got.Outcome != exp.Outcome {
			t.Errorf("trial %d (slot %d): outcome %v != unstratified %v", j, slot, got.Outcome, exp.Outcome)
		}
		if w := sr.Weights[j]; w != 1/plan.Rate(sr.Strata[j]) {
			t.Errorf("trial %d: weight %v inconsistent with stratum %v", j, w, sr.Strata[j])
		}
	}
	// Slot counts cover the full draw.
	total := 0
	for _, c := range sr.SlotCounts {
		total += c
	}
	if total != n {
		t.Errorf("SlotCounts sum %d, want %d", total, n)
	}
}

// TestStratifiedUniformPlanEqualsRandom: an all-ones plan thins nothing
// and must reproduce CampaignRandom exactly, weighted stats included —
// the unstratified campaign is the uniform special case.
func TestStratifiedUniformPlanEqualsRandom(t *testing.T) {
	const n = 200
	plain := stratInjector(t, "nibblepack", Options{Seed: 7})
	strat := stratInjector(t, "nibblepack", Options{Seed: 7, Stratify: uniformPlan()})

	plainRes, err := plain.CampaignRandom(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := strat.CampaignStratified(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	if sr.ExecutedN() != n {
		t.Fatalf("uniform plan executed %d of %d", sr.ExecutedN(), n)
	}
	for i := range plainRes.Trials {
		a, b := sr.Trials[i], plainRes.Trials[i]
		if a.Instr.Pos() != b.Instr.Pos() || a.Instance != b.Instance || a.Bit != b.Bit || a.Outcome != b.Outcome {
			t.Fatalf("trial %d differs: %+v vs %+v", i, a, b)
		}
	}
	if got, want := sr.WeightedSDC(), plainRes.SDCProb(); math.Abs(got-want) > 1e-12 {
		t.Errorf("WeightedSDC %v != SDCProb %v", got, want)
	}
	if got, want := sr.EffectiveN(), float64(plainRes.ClassifiedN()); math.Abs(got-want) > 1e-6 {
		t.Errorf("EffectiveN %v != ClassifiedN %v", got, want)
	}
	if got, want := sr.WeightedErrorBar95(), plainRes.ErrorBar95(); math.Abs(got-want) > 1e-9 {
		t.Errorf("WeightedErrorBar95 %v != ErrorBar95 %v", got, want)
	}
}

// TestStratifiedCheckpointRoundTrip: a stratified checkpoint resumes to
// an identical result, and FromCheckpoint reconstructs the
// weighted campaign without executing.
func TestStratifiedCheckpointRoundTrip(t *testing.T) {
	const n = 150
	plan := bitlive.DefaultPlan()
	path := filepath.Join(t.TempDir(), "strat.ckpt")
	opts := Options{Seed: 5, Stratify: &plan}

	first := stratInjector(t, "boxblur", opts)
	sr1, err := first.Campaign(context.Background(), n, Run{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}

	second := stratInjector(t, "boxblur", opts)
	sr2, err := second.Campaign(context.Background(), n, Run{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr2.Trials) != len(sr1.Trials) {
		t.Fatalf("resumed %d trials, want %d", len(sr2.Trials), len(sr1.Trials))
	}
	for i := range sr1.Trials {
		a, b := sr1.Trials[i], sr2.Trials[i]
		if a.Instr.Pos() != b.Instr.Pos() || a.Instance != b.Instance || a.Bit != b.Bit || a.Outcome != b.Outcome {
			t.Fatalf("trial %d drifted across resume", i)
		}
	}

	sr3, missing, err := second.FromCheckpoint(n, path)
	if err != nil {
		t.Fatal(err)
	}
	if missing != 0 {
		t.Fatalf("reconstruction missing %d trials", missing)
	}
	if got, want := sr3.WeightedSDC(), sr1.WeightedSDC(); got != want {
		t.Errorf("reconstructed WeightedSDC %v != %v", got, want)
	}
	if got, want := sr3.WeightedErrorBar95(), sr1.WeightedErrorBar95(); got != want {
		t.Errorf("reconstructed WeightedErrorBar95 %v != %v", got, want)
	}
}

// TestStratifiedShardMerge: a server job's shards multiply its trial
// workers, and its result is replayed from the job's one log on the
// same injector. Run that way, for several shard counts, a stratified
// campaign replays into the one-worker campaign bit for bit, weighted
// statistics included.
func TestStratifiedShardMerge(t *testing.T) {
	const n = 180
	plan := bitlive.DefaultPlan()
	opts := Options{Seed: 21, Stratify: &plan, Workers: 1}
	want, err := stratInjector(t, "rgb2gray", opts).CampaignStratified(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3} {
		o := opts
		o.Workers = 2 * shards
		inj := stratInjector(t, "rgb2gray", o)
		path := filepath.Join(t.TempDir(), "trials.jsonl")
		live, err := inj.Campaign(context.Background(), n, Run{Checkpoint: path})
		if err != nil {
			t.Fatal(err)
		}
		if live.ExecutedN() != want.ExecutedN() {
			t.Fatalf("%d shards: executed %d trials, one worker %d", shards, live.ExecutedN(), want.ExecutedN())
		}
		got, missing, err := inj.FromCheckpoint(n, path)
		if err != nil {
			t.Fatal(err)
		}
		if missing != 0 {
			t.Fatalf("%d shards: log missing %d trials", shards, missing)
		}
		if len(got.Trials) != len(want.Trials) {
			t.Fatalf("%d shards: replayed %d trials, want %d", shards, len(got.Trials), len(want.Trials))
		}
		for i := range want.Trials {
			if got.Trials[i].Outcome != want.Trials[i].Outcome {
				t.Fatalf("%d shards: trial %d outcome drifted across the log replay", shards, i)
			}
		}
		if got.WeightedSDC() != want.WeightedSDC() || got.WeightedErrorBar95() != want.WeightedErrorBar95() {
			t.Errorf("%d shards: weighted stats drifted: %v±%v vs %v±%v", shards,
				got.WeightedSDC(), got.WeightedErrorBar95(), want.WeightedSDC(), want.WeightedErrorBar95())
		}
	}
}

// TestCheckpointPruneMismatchRefused is the satellite regression for the
// silent prune/unpruned resume mixing: the header now records the
// pruning configuration and a mismatched resume must fail loudly, in
// both directions. (Before the header carried Prune, both resumes below
// silently succeeded and mixed semantics in one transcript.)
func TestCheckpointPruneMismatchRefused(t *testing.T) {
	const n = 40
	path := filepath.Join(t.TempDir(), "prune.ckpt")
	pruned := stratInjector(t, "rgb2gray", Options{Seed: 3, PruneBits: true})
	if _, err := pruned.Campaign(context.Background(), n, Run{Checkpoint: path}); err != nil {
		t.Fatal(err)
	}

	plain := stratInjector(t, "rgb2gray", Options{Seed: 3})
	_, err := plain.Campaign(context.Background(), n, Run{Checkpoint: path, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "pruning") {
		t.Fatalf("unpruned resume of pruned checkpoint: err = %v, want pruning mismatch", err)
	}

	// Reverse direction: a plain log must refuse a pruned resume.
	path2 := filepath.Join(t.TempDir(), "plain.ckpt")
	if _, err := plain.Campaign(context.Background(), n, Run{Checkpoint: path2}); err != nil {
		t.Fatal(err)
	}
	_, err = pruned.Campaign(context.Background(), n, Run{Checkpoint: path2, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "pruning") {
		t.Fatalf("pruned resume of unpruned checkpoint: err = %v, want pruning mismatch", err)
	}

	// Matched resumes still work.
	if _, err := pruned.Campaign(context.Background(), n, Run{Checkpoint: path, Resume: true}); err != nil {
		t.Fatalf("matched pruned resume failed: %v", err)
	}
	if _, err := plain.Campaign(context.Background(), n, Run{Checkpoint: path2, Resume: true}); err != nil {
		t.Fatalf("matched plain resume failed: %v", err)
	}
}

// TestCheckpointStratifyMismatchRefused: a stratified log written under
// one plan refuses resume under another (the thinned subset differs),
// and a stratified log never resumes as a plain random campaign.
func TestCheckpointStratifyMismatchRefused(t *testing.T) {
	const n = 60
	path := filepath.Join(t.TempDir(), "strat.ckpt")
	plan := bitlive.DefaultPlan()
	a := stratInjector(t, "nibblepack", Options{Seed: 9, Stratify: &plan})
	if _, err := a.Campaign(context.Background(), n, Run{Checkpoint: path}); err != nil {
		t.Fatal(err)
	}

	other := bitlive.DefaultPlan()
	other.Rates[bitlive.StratumNoise] = 0.5
	b := stratInjector(t, "nibblepack", Options{Seed: 9, Stratify: &other})
	_, err := b.Campaign(context.Background(), n, Run{Checkpoint: path})
	if err == nil || !strings.Contains(err.Error(), "stratification") {
		t.Fatalf("cross-plan resume: err = %v, want stratification mismatch", err)
	}

	plain := stratInjector(t, "nibblepack", Options{Seed: 9})
	_, err = plain.Campaign(context.Background(), n, Run{Checkpoint: path, Resume: true})
	if err == nil {
		t.Fatal("plain resume of stratified checkpoint succeeded")
	}
}
