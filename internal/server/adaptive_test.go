package server

import (
	"context"
	"strings"
	"testing"

	"trident/internal/fault"
	"trident/internal/progs"
)

// localAdaptive runs the reference adaptive campaign for req in process
// — the ground truth an adaptive server job must reproduce exactly.
func localAdaptive(t *testing.T, req *SubmitRequest) *fault.AdaptiveResult {
	t.Helper()
	p, err := progs.ByName(req.Program)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(p.Build(), fault.Options{Seed: req.Seed, Adaptive: &fault.AdaptiveConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	ar, err := inj.CampaignAdaptive(context.Background(), req.N)
	if err != nil {
		t.Fatal(err)
	}
	return ar
}

// TestAdaptiveJobMatchesLocal: a sharded adaptive server job — pilot
// and main phases run in one campaign on many workers, the plan
// re-derived from the job's log when its result replays — reproduces an
// in-process adaptive campaign bit for bit: same pilot prefix, same
// derived plan, same thinned main subset in the same sampling order,
// same weighted estimates.
func TestAdaptiveJobMatchesLocal(t *testing.T) {
	s := newSupervisedServer(t, nil)
	s.Start()

	req := &SubmitRequest{Program: "rgb2gray", N: 150, Seed: 9, Shards: 3, StratifyAdaptive: true}
	res := submitAndWait(t, s, req, JobDone).Result()
	if res == nil || !res.Adaptive || !res.Stratified {
		t.Fatalf("result = %+v, want an adaptive stratified result", res)
	}
	want := localAdaptive(t, req)
	if res.PilotExecuted != want.PilotExecuted || want.PilotExecuted <= 0 ||
		want.PilotExecuted > want.PilotSlots {
		t.Fatalf("pilot executed %d, local %d of %d pilot slots",
			res.PilotExecuted, want.PilotExecuted, want.PilotSlots)
	}
	if res.ExecutedN != want.ExecutedN() || len(res.Trials) != want.ExecutedN() {
		t.Fatalf("executed %d trials (%d records), local ran %d",
			res.ExecutedN, len(res.Trials), want.ExecutedN())
	}
	if res.ExecutedN > req.N {
		t.Fatalf("executed %d trials, over the %d-slot budget", res.ExecutedN, req.N)
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

// TestResultCacheAdaptiveKeySeparation: plain, stratified and adaptive
// submissions of the same campaign all get their own result-cache
// entries, and an adaptive resubmission hits its entry byte for byte.
func TestResultCacheAdaptiveKeySeparation(t *testing.T) {
	cacheDir := t.TempDir()
	s := newSupervisedServer(t, func(c *Config) { c.ResultCacheDir = cacheDir })
	s.Start()

	plain := &SubmitRequest{Program: "nibblepack", N: 60, Seed: 4, Shards: 2}
	plainRes := submitAndWait(t, s, plain, JobDone).Result()

	adapt := *plain
	adapt.StratifyAdaptive = true
	j2 := submitAndWait(t, s, &adapt, JobDone)
	res2 := j2.Result()
	if res2.Cached {
		t.Fatal("adaptive submission served from the plain cache entry")
	}
	if !res2.Adaptive || !res2.Stratified || res2.PilotExecuted <= 0 {
		t.Fatalf("adaptive result: adaptive=%v stratified=%v pilot=%d, want a pilot-backed adaptive result",
			res2.Adaptive, res2.Stratified, res2.PilotExecuted)
	}
	if len(res2.Trials) >= len(plainRes.Trials) {
		t.Fatalf("adaptive job executed %d trials (plain ran %d), want a strict thinned subset",
			len(res2.Trials), len(plainRes.Trials))
	}

	strat := *plain
	strat.Stratify = true
	if submitAndWait(t, s, &strat, JobDone).Result().Cached {
		t.Fatal("stratified submission served from another mode's cache entry")
	}
	if files := cacheEntryFiles(t, cacheDir); len(files) != 3 {
		t.Fatalf("cache holds %d entries, want 3 (one per sampling mode)", len(files))
	}

	j4 := submitAndWait(t, s, &adapt, JobDone)
	res4 := j4.Result()
	if !res4.Cached {
		t.Fatal("adaptive resubmission missed its cache entry")
	}
	if got, want := stripIdentity(res4), stripIdentity(res2); string(got) != string(want) {
		t.Errorf("cached adaptive result diverges:\n  got  %s\n  want %s", got, want)
	}
}

// TestAdaptiveStratifyMutuallyExclusive: a submission asking for both
// sampling modes is rejected at admission with a field-attributed error.
func TestAdaptiveStratifyMutuallyExclusive(t *testing.T) {
	req := &SubmitRequest{Program: "rgb2gray", N: 10, Stratify: true, StratifyAdaptive: true}
	err := req.Validate(Limits{})
	if err == nil {
		t.Fatal("stratify+stratify_adaptive accepted")
	}
	var re *RequestError
	if !errorsAs(err, &re) || re.Field != "stratify_adaptive" {
		t.Fatalf("error = %v, want a stratify_adaptive RequestError", err)
	}
	if !strings.Contains(re.Msg, "mutually exclusive") {
		t.Fatalf("error msg = %q", re.Msg)
	}
}

// errorsAs is a tiny local wrapper so the test reads without importing
// errors for one call.
func errorsAs(err error, target **RequestError) bool {
	re, ok := err.(*RequestError)
	if ok {
		*target = re
	}
	return ok
}
