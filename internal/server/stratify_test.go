package server

import (
	"context"
	"testing"

	"trident/internal/bitlive"
	"trident/internal/fault"
	"trident/internal/progs"
)

// localStratified runs the reference stratified campaign for req in
// process — the ground truth a server job must reproduce exactly.
func localStratified(t *testing.T, req *SubmitRequest) *fault.StratifiedResult {
	t.Helper()
	p, err := progs.ByName(req.Program)
	if err != nil {
		t.Fatal(err)
	}
	plan := bitlive.DefaultPlan()
	inj, err := fault.New(p.Build(), fault.Options{Seed: req.Seed, Stratify: &plan})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := inj.CampaignStratified(context.Background(), req.N)
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

// TestStratifiedJobMatchesLocal: a sharded stratified server job
// reproduces an in-process stratified campaign bit for bit — same
// executed subset in the same sampling order, same weighted estimates —
// so worker count and the log replay are transparent to the
// Horvitz-Thompson reweighting.
func TestStratifiedJobMatchesLocal(t *testing.T) {
	s := newSupervisedServer(t, nil)
	s.Start()

	req := &SubmitRequest{Program: "rgb2gray", N: 120, Seed: 9, Shards: 3, Stratify: true}
	res := submitAndWait(t, s, req, JobDone).Result()
	if res == nil || !res.Stratified {
		t.Fatalf("result = %+v, want a stratified result", res)
	}
	want := localStratified(t, req)
	if res.ExecutedN != want.ExecutedN() || len(res.Trials) != want.ExecutedN() {
		t.Fatalf("executed %d trials (%d records), local ran %d",
			res.ExecutedN, len(res.Trials), want.ExecutedN())
	}
	if res.Missing != 0 {
		t.Fatalf("missing = %d, want 0", res.Missing)
	}
	for i, tr := range want.Trials {
		got := res.Trials[i]
		if got.Func != tr.Instr.Block.Fn.Name || got.Instr != tr.Instr.ID ||
			got.Instance != tr.Instance || got.Bit != tr.Bit ||
			got.Outcome != tr.Outcome.String() {
			t.Fatalf("trial %d: server %+v, local %+v", i, got, tr)
		}
	}
	if res.WeightedSDC != want.WeightedSDC() {
		t.Errorf("weighted SDC %v, local %v", res.WeightedSDC, want.WeightedSDC())
	}
	if res.WeightedErrorBar95 != want.WeightedErrorBar95() {
		t.Errorf("weighted error bar %v, local %v", res.WeightedErrorBar95, want.WeightedErrorBar95())
	}
	if res.EffectiveN != want.EffectiveN() {
		t.Errorf("effective n %v, local %v", res.EffectiveN, want.EffectiveN())
	}
}

// TestResultCacheStratifyKeySeparation: stratified and plain submissions
// of the same campaign never share a result-cache entry (a stratified
// result holds only the thinned subset), and each resubmission hits its
// own entry with the weighted fields intact.
func TestResultCacheStratifyKeySeparation(t *testing.T) {
	cacheDir := t.TempDir()
	s := newSupervisedServer(t, func(c *Config) { c.ResultCacheDir = cacheDir })
	s.Start()

	plain := &SubmitRequest{Program: "nibblepack", N: 60, Seed: 4, Shards: 2}
	plainRes := submitAndWait(t, s, plain, JobDone).Result()
	if plainRes.Stratified {
		t.Fatal("plain job produced a stratified result")
	}

	strat := *plain
	strat.Stratify = true
	j2 := submitAndWait(t, s, &strat, JobDone)
	res2 := j2.Result()
	if res2.Cached {
		t.Fatal("stratified submission served from the plain cache entry")
	}
	if !res2.Stratified || len(res2.Trials) >= len(plainRes.Trials) {
		t.Fatalf("stratified result: stratified=%v trials=%d (plain ran %d), want a strict thinned subset",
			res2.Stratified, len(res2.Trials), len(plainRes.Trials))
	}
	if files := cacheEntryFiles(t, cacheDir); len(files) != 2 {
		t.Fatalf("cache holds %d entries, want 2 (one per sampling mode)", len(files))
	}

	j3 := submitAndWait(t, s, &strat, JobDone)
	res3 := j3.Result()
	if !res3.Cached {
		t.Fatal("stratified resubmission missed its cache entry")
	}
	if got, want := stripIdentity(res3), stripIdentity(res2); string(got) != string(want) {
		t.Errorf("cached stratified result diverges:\n  got  %s\n  want %s", got, want)
	}
	if !submitAndWait(t, s, plain, JobDone).Result().Cached {
		t.Error("plain resubmission missed its cache entry")
	}
}
