package fault

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"trident/internal/ir"
)

// failingHook fails every attempt of trials whose bit satisfies the
// predicate, with a transient engine error so the retry machinery
// engages (and exhausts) before the trial is classified Errored.
func failingHook(pred func(bit int) bool) func(*ir.Instr, uint64, int, int) error {
	return func(_ *ir.Instr, _ uint64, bit int, attempt int) error {
		if pred(bit) {
			return &EngineError{
				Err:       fmt.Errorf("simulated transient failure (attempt %d)", attempt),
				Transient: true,
			}
		}
		return nil
	}
}

// TestResumeReattemptsErroredTrials is the regression test for the
// resume-after-retry accounting bug: a trial that exhausted its retries
// and was checkpointed as Errored must be re-attempted — not replayed —
// when the campaign resumes, and must never appear twice in the result.
// With the failure gone by session 2, the resumed campaign must be
// byte-identical to a campaign that never failed at all. Runs on the
// full re-execution path (-1) and on the snapshot path at the default
// (0) and a dense interval.
func TestResumeReattemptsErroredTrials(t *testing.T) {
	const n = 100
	for _, interval := range []int{-1, 0, 64} {
		interval := interval
		t.Run(fmt.Sprintf("interval=%d", interval), func(t *testing.T) {
			base := Options{Seed: 23, Workers: 4, MaxRetries: 2, SnapshotInterval: interval}

			// The undisturbed reference: no engine failures ever.
			clean, err := newInjectorOpts(t, vulnerable, base).
				CampaignRandom(context.Background(), n)
			if err != nil {
				t.Fatal(err)
			}

			// Session 1: a deterministic subset of trials fails every
			// attempt and is checkpointed as Errored.
			path := filepath.Join(t.TempDir(), "trials.jsonl")
			opts1 := base
			opts1.TrialHook = failingHook(func(bit int) bool { return bit%7 == 2 })
			session1, err := newInjectorOpts(t, vulnerable, opts1).
				Campaign(context.Background(), n, Run{Checkpoint: path})
			if err != nil {
				t.Fatal(err)
			}
			if session1.Counts[Errored] == 0 {
				t.Fatal("session 1 produced no errored trials; the regression is not exercised")
			}
			if got, want := len(session1.Errs), session1.Counts[Errored]; got != want {
				t.Fatalf("session 1: len(Errs) = %d, Counts[Errored] = %d", got, want)
			}
			for _, te := range session1.Errs {
				if te.Attempts != 1+base.MaxRetries {
					t.Errorf("errored trial %d used %d attempts, want %d",
						te.Index, te.Attempts, 1+base.MaxRetries)
				}
			}

			// Session 2: the transient condition is gone. Resume must
			// re-attempt exactly the errored trials and heal them.
			resumed, err := newInjectorOpts(t, vulnerable, base).
				Campaign(context.Background(), n, Run{Checkpoint: path, Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Counts[Errored] != 0 || len(resumed.Errs) != 0 {
				t.Fatalf("resume kept %d errored trials (%d Errs); want all healed",
					resumed.Counts[Errored], len(resumed.Errs))
			}
			if got, want := transcript(resumed.CampaignResult), transcript(clean); got != want {
				t.Errorf("healed campaign differs from never-failed campaign:\n got: %q\nwant: %q",
					got, want)
			}
		})
	}
}

// TestResumePersistentFailureCountsOnce resumes with the failure still
// present: re-attempted trials fail again, and each must be counted
// exactly once — len(Errs) == Counts[Errored], with strictly increasing
// unique trial indices and no inflation across sessions.
func TestResumePersistentFailureCountsOnce(t *testing.T) {
	const n = 100
	base := Options{Seed: 23, Workers: 4, MaxRetries: 1}
	hook := failingHook(func(bit int) bool { return bit%7 == 2 })

	path := filepath.Join(t.TempDir(), "trials.jsonl")
	opts := base
	opts.TrialHook = hook
	session1, err := newInjectorOpts(t, vulnerable, opts).
		Campaign(context.Background(), n, Run{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if session1.Counts[Errored] == 0 {
		t.Fatal("no errored trials in session 1")
	}

	session2, err := newInjectorOpts(t, vulnerable, opts).
		Campaign(context.Background(), n, Run{Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := session2.Counts[Errored], session1.Counts[Errored]; got != want {
		t.Errorf("errored count changed across sessions: %d -> %d", want, got)
	}
	if got, want := len(session2.Errs), session2.Counts[Errored]; got != want {
		t.Errorf("len(Errs) = %d, Counts[Errored] = %d; trials double-counted", got, want)
	}
	seen := map[int]bool{}
	for _, te := range session2.Errs {
		if seen[te.Index] {
			t.Errorf("trial index %d appears twice in Errs", te.Index)
		}
		seen[te.Index] = true
	}
	if got, want := transcript(session2.CampaignResult), transcript(session1.CampaignResult); got != want {
		t.Errorf("persistent-failure resume is not idempotent:\n got: %q\nwant: %q", got, want)
	}
}
