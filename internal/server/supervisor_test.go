package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"trident/internal/fault"
)

// flakyRunner wraps another runner, injecting failures: shard → number
// of attempts to fail before delegating. When partial is set, a failing
// attempt first runs the real shard with a context cancelled after a
// few trials, so the crash leaves a half-written checkpoint behind —
// the debris the retry must resume over.
type flakyRunner struct {
	inner    shardRunner
	mu       sync.Mutex
	failures map[int]int
	partial  bool
}

func (r *flakyRunner) runShard(ctx context.Context, j *Job, shard int, phase shardPhase, progress func(fault.Progress)) error {
	r.mu.Lock()
	inject := r.failures[shard] > 0
	if inject {
		r.failures[shard]--
	}
	r.mu.Unlock()
	if !inject {
		return r.inner.runShard(ctx, j, shard, phase, progress)
	}
	if r.partial {
		// Run the real shard but die after a few completed trials.
		subCtx, cancel := context.WithCancel(ctx)
		done := 0
		_ = r.inner.runShard(subCtx, j, shard, phase, func(p fault.Progress) {
			done = p.Done
			progress(p)
			if done >= 3 {
				cancel()
			}
		})
		cancel()
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return errors.New("injected shard crash")
}

// newSupervisedServer builds a started inproc server over a temp spool
// with fast retries, returning it plus its cleanup.
func newSupervisedServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Spool:             t.TempDir(),
		MaxConcurrentJobs: 2,
		RetryBase:         time.Millisecond,
		ShardRetries:      2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s
}

// waitTerminal blocks until the job leaves the queue and reaches a
// terminal state (or the test times out).
func waitTerminal(t *testing.T, j *Job) JobState {
	t.Helper()
	deadline := time.After(60 * time.Second)
	for {
		ch := j.watch()
		if st := j.State(); st.Terminal() {
			return st
		}
		select {
		case <-ch:
		case <-deadline:
			t.Fatalf("job %s stuck in state %s", j.ID, j.State())
		}
	}
}

// directTrials runs the same campaign through a bare full re-execution
// Injector — the reference half of every bit-identity comparison, so
// the service's snapshot-replay shards are checked against trials run
// from instruction 0.
func directTrials(t *testing.T, req *SubmitRequest) []TrialRecord {
	t.Helper()
	mod, err := req.BuildModule()
	if err != nil {
		t.Fatal(err)
	}
	opts := req.faultOptions()
	opts.SnapshotInterval = -1
	inj, err := fault.New(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	if k := inj.Snapshots(); k != 0 {
		t.Fatalf("full re-execution injector holds %d snapshots", k)
	}
	res, err := inj.CampaignRandom(context.Background(), req.N)
	if err != nil {
		t.Fatal(err)
	}
	return wireTrials(res)
}

func diffTrials(t *testing.T, got, want []TrialRecord, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d trials, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: trial %d diverges:\n  got  %+v\n  want %+v", label, i, got[i], want[i])
		}
	}
}

// TestShardCrashRetrySucceeds: a shard that crashes twice (leaving a
// partial checkpoint each time) is retried from that checkpoint and the
// job still completes with results bit-identical to a direct run.
func TestShardCrashRetrySucceeds(t *testing.T) {
	s := newSupervisedServer(t, nil)
	s.runner = &flakyRunner{inner: s.runner, failures: map[int]int{0: 2}, partial: true}
	s.Start()

	req := &SubmitRequest{Program: "pathfinder", N: 40, Seed: 42, Shards: 2}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != JobDone {
		t.Fatalf("state = %s (%s), want done", st, j.status().Error)
	}
	st := j.status()
	if st.Shards[0].Attempts != 3 {
		t.Errorf("shard 0 attempts = %d, want 3", st.Shards[0].Attempts)
	}
	res := j.Result()
	if res == nil || res.Missing != 0 {
		t.Fatalf("result = %+v, want complete", res)
	}
	diffTrials(t, res.Trials, directTrials(t, req), "crash-retried job")
}

// TestShardRetryBudgetExhausted: a shard that never stops crashing
// degrades the job to a partial result carrying that shard's error —
// the other shard's trials are served, not discarded.
func TestShardRetryBudgetExhausted(t *testing.T) {
	s := newSupervisedServer(t, nil)
	s.runner = &flakyRunner{inner: s.runner, failures: map[int]int{1: 100}, partial: true}
	s.Start()

	req := &SubmitRequest{Program: "pathfinder", N: 40, Seed: 7, Shards: 2}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != JobPartial {
		t.Fatalf("state = %s, want partial", st)
	}
	res := j.Result()
	if res == nil {
		t.Fatal("no result for partial job")
	}
	if res.Missing == 0 {
		t.Error("partial job reports no missing trials")
	}
	if len(res.FailedShards) != 1 || res.FailedShards[0].Shard != 1 {
		t.Fatalf("FailedShards = %+v, want shard 1", res.FailedShards)
	}
	// Shard 0 completed: its slice of the direct run must be present
	// and identical. Shard 0 owns trials [0, 20).
	want := directTrials(t, req)
	lo, hi := fault.ShardRange(req.N, 0, req.Shards)
	diffTrials(t, res.Trials[:hi-lo], want[lo:hi], "surviving shard")
}

func TestBackoffDelay(t *testing.T) {
	base := 100 * time.Millisecond
	for attempt := 0; attempt < 6; attempt++ {
		d := backoffDelay(base, attempt, 42, 1)
		nominal := base << uint(attempt)
		if d < nominal/2 || d > nominal {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d, nominal/2, nominal)
		}
		// Deterministic for a given (seed, shard, attempt).
		if d2 := backoffDelay(base, attempt, 42, 1); d2 != d {
			t.Errorf("attempt %d: non-deterministic backoff %v vs %v", attempt, d, d2)
		}
	}
	// Cap: huge attempts must not overflow or exceed 30s.
	if d := backoffDelay(base, 40, 1, 2); d > 30*time.Second {
		t.Errorf("capped delay = %v", d)
	}
	// Shards that died together back off differently.
	same := 0
	for shard := 0; shard < 8; shard++ {
		if backoffDelay(base, 2, 9, shard) == backoffDelay(base, 2, 9, (shard+1)%8) {
			same++
		}
	}
	if same == 8 {
		t.Error("jitter does not decorrelate shards")
	}
}

// TestWallClockBudget: a job over its wall budget terminates partial
// with the budget named in the error, instead of running forever.
func TestWallClockBudget(t *testing.T) {
	s := newSupervisedServer(t, func(c *Config) {
		c.ChaosTrialDelay = 20 * time.Millisecond
	})
	s.Start()
	req := &SubmitRequest{Program: "pathfinder", N: 400, Seed: 3, Shards: 2, MaxWallMS: 300}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != JobPartial {
		t.Fatalf("state = %s, want partial", st)
	}
	if stErr := j.status().Error; stErr == "" {
		t.Error("partial job carries no error")
	} else if want := fmt.Sprintf("wall-clock budget (%v) exhausted", 300*time.Millisecond); stErr != want {
		t.Errorf("error = %q, want %q", stErr, want)
	}
}
