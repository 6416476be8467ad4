package fault

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"trident/internal/ir"
)

// newInjectorOpts is newInjector with full Options control.
func newInjectorOpts(t testing.TB, src string, opts Options) *Injector {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	inj, err := New(m, opts)
	if err != nil {
		t.Fatalf("new injector: %v", err)
	}
	return inj
}

// transcript renders a campaign result into a worker-order-independent,
// injector-instance-independent byte string: one line per trial plus the
// error roster. Two campaigns are "byte-identical" iff transcripts match.
func transcript(res *CampaignResult) string {
	var b strings.Builder
	for i, tr := range res.Trials {
		fmt.Fprintf(&b, "%d %s:%d inst=%d bit=%d %s lat=%d\n",
			i, tr.Instr.Block.Fn.Name, tr.Instr.ID, tr.Instance, tr.Bit, tr.Outcome, tr.CrashLatency)
	}
	for _, te := range res.Errs {
		fmt.Fprintf(&b, "err %d attempts=%d %v\n", te.Index, te.Attempts, te.Err)
	}
	return b.String()
}

func TestCampaignWorkerInvariance(t *testing.T) {
	// The same (module, seed, n) campaign must be byte-identical whether it
	// runs serially or on a wide worker pool — including which trials error
	// (the hook panics on a deterministic subset of specs).
	hook := func(target *ir.Instr, instance uint64, bit int, attempt int) error {
		if bit%11 == 3 {
			panic("chaos: simulated engine fault")
		}
		return nil
	}
	var want string
	for _, workers := range []int{1, 4, 16} {
		inj := newInjectorOpts(t, vulnerable, Options{Seed: 99, Workers: workers, TrialHook: hook})
		res, err := inj.CampaignRandom(context.Background(), 120)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.N() != 120 {
			t.Fatalf("workers=%d: N = %d, want 120", workers, res.N())
		}
		got := transcript(res)
		if workers == 1 {
			want = got
			if res.Counts[Errored] == 0 {
				t.Fatal("chaos hook never fired; test is vacuous")
			}
			continue
		}
		if got != want {
			t.Errorf("workers=%d campaign differs from workers=1:\n got: %q\nwant: %q", workers, got, want)
		}
	}
}

func TestCampaignPanicIsolationPartialResults(t *testing.T) {
	// A campaign whose trials include engine panics completes, classifies
	// the panicked trials Errored, and keeps everything else.
	inj := newInjectorOpts(t, vulnerable, Options{
		Seed:    7,
		Workers: 4,
		TrialHook: func(target *ir.Instr, instance uint64, bit int, attempt int) error {
			if bit%5 == 0 {
				panic(fmt.Sprintf("boom bit=%d", bit))
			}
			return nil
		},
	})
	res, err := inj.CampaignRandom(context.Background(), 100)
	if err != nil {
		t.Fatalf("campaign aborted: %v", err)
	}
	if res.N() != 100 {
		t.Fatalf("N = %d, want 100", res.N())
	}
	if res.Counts[Errored] == 0 {
		t.Fatal("no Errored trials; hook never fired")
	}
	if len(res.Errs) != res.Counts[Errored] {
		t.Errorf("len(Errs) = %d, Counts[Errored] = %d", len(res.Errs), res.Counts[Errored])
	}
	if got := res.ClassifiedN(); got != 100-res.Counts[Errored] {
		t.Errorf("ClassifiedN = %d, want %d", got, 100-res.Counts[Errored])
	}
	// Program-outcome rates are normalized over classified trials only.
	sum := 0.0
	for _, o := range []Outcome{Benign, SDC, Crash, Hang, Detected} {
		sum += res.Rate(o)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("classified rates sum to %v, want 1.0", sum)
	}
	for i := 1; i < len(res.Errs); i++ {
		if res.Errs[i-1].Index >= res.Errs[i].Index {
			t.Fatalf("Errs not sorted by trial index: %d then %d", res.Errs[i-1].Index, res.Errs[i].Index)
		}
	}
	for _, te := range res.Errs {
		if res.Trials[te.Index].Outcome != Errored {
			t.Errorf("trial %d has error but outcome %v", te.Index, res.Trials[te.Index].Outcome)
		}
		var ee *EngineError
		if !errors.As(te.Err, &ee) || ee.Recovered == nil {
			t.Errorf("trial %d error is not a recovered-panic EngineError: %v", te.Index, te.Err)
		}
		// Panics are deterministic engine failures: no retry budget spent.
		if te.Attempts != 1 {
			t.Errorf("trial %d attempts = %d, want 1 (fail-fast on non-transient)", te.Index, te.Attempts)
		}
	}
}

func TestCampaignRetryTransient(t *testing.T) {
	// Transient failures on early attempts succeed on retry and leave the
	// campaign byte-identical to an undisturbed one.
	flaky := func(target *ir.Instr, instance uint64, bit int, attempt int) error {
		if attempt == 1 && bit%3 == 0 {
			return &EngineError{Err: errors.New("simulated transient"), Transient: true}
		}
		return nil
	}
	inj := newInjectorOpts(t, vulnerable, Options{Seed: 5, Workers: 4, MaxRetries: 2, TrialHook: flaky})
	res, err := inj.CampaignRandom(context.Background(), 80)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[Errored] != 0 {
		t.Fatalf("%d trials errored despite retry budget: %v", res.Counts[Errored], res.Errs)
	}
	clean := newInjectorOpts(t, vulnerable, Options{Seed: 5, Workers: 4})
	want, err := clean.CampaignRandom(context.Background(), 80)
	if err != nil {
		t.Fatal(err)
	}
	if transcript(res) != transcript(want) {
		t.Error("retried campaign differs from undisturbed campaign")
	}
}

func TestCampaignRetryExhaustion(t *testing.T) {
	// A spec that fails transiently on every attempt consumes the full
	// budget (1 + MaxRetries) and is then classified Errored.
	const retries = 2
	var calls atomic.Int64
	inj := newInjectorOpts(t, vulnerable, Options{
		Seed: 5, Workers: 2, MaxRetries: retries,
		TrialHook: func(target *ir.Instr, instance uint64, bit int, attempt int) error {
			if bit == 13 {
				calls.Add(1)
				return &EngineError{Err: errors.New("always transient"), Transient: true}
			}
			return nil
		},
	})
	res, err := inj.CampaignRandom(context.Background(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[Errored] == 0 {
		t.Fatal("no trial hit bit 13; test is vacuous")
	}
	for _, te := range res.Errs {
		if te.Attempts != 1+retries {
			t.Errorf("trial %d attempts = %d, want %d", te.Index, te.Attempts, 1+retries)
		}
		if !isTransient(te.Err) {
			t.Errorf("trial %d final error lost its transient marker: %v", te.Index, te.Err)
		}
	}
	if want := int64(res.Counts[Errored] * (1 + retries)); calls.Load() != want {
		t.Errorf("hook fired %d times for errored specs, want %d", calls.Load(), want)
	}
}

// slowLoop runs ~1.2M dynamic instructions: long enough that a
// millisecond-scale trial watchdog reliably expires mid-run.
const slowLoop = `
module "slow"
func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, loop]
  %acc = phi i64 [i64 0, entry], [%sum, loop]
  %sum = add %acc, %i
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 200000
  condbr %c, loop, done
done:
  print %sum
  ret
}
`

func TestTrialWatchdogIsTransient(t *testing.T) {
	// A trial that cannot finish inside TrialTimeout fails with a transient
	// EngineError (retryable), while campaign-level cancellation of the
	// parent context propagates as the plain context error instead.
	// Full re-execution keeps the trial long: snapshot replay would
	// resume it just before the injection point and finish in time.
	inj := newInjectorOpts(t, slowLoop, Options{Seed: 3, TrialTimeout: time.Millisecond, SnapshotInterval: -1})
	var sum *ir.Instr
	for _, in := range inj.module.Func("main").Block("loop").Instrs {
		if in.Name == "sum" {
			sum = in
		}
	}
	if sum == nil {
		t.Fatal("sum register not found")
	}
	// Reaching dynamic instance 150000 takes ~0.9M interpreted
	// instructions — far more than a millisecond of wall clock.
	_, err := inj.InjectDetail(context.Background(), sum, 150000, 3)
	var ee *EngineError
	if !errors.As(err, &ee) || !ee.Transient {
		t.Fatalf("watchdog expiry err = %v, want transient *EngineError", err)
	}
	if !isTransient(err) {
		t.Error("isTransient rejects a watchdog expiry")
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = inj.InjectDetail(cancelled, sum, 150000, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled-parent err = %v, want context.Canceled", err)
	}
	if isTransient(err) {
		t.Error("parent cancellation misclassified as a transient engine failure")
	}
}

func TestCampaignCancellationCompletedPrefix(t *testing.T) {
	// Cancelling mid-campaign returns context.Canceled plus exactly the
	// contiguous completed prefix — byte-identical to the same prefix of an
	// uninterrupted run.
	full, err := newInjectorOpts(t, vulnerable, Options{Seed: 21, Workers: 4}).
		CampaignRandom(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	fullLines := strings.Split(transcript(full), "\n")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Int64
	inj := newInjectorOpts(t, vulnerable, Options{
		Seed: 21, Workers: 4,
		TrialHook: func(target *ir.Instr, instance uint64, bit int, attempt int) error {
			if fired.Add(1) == 40 {
				cancel()
			}
			return nil
		},
	})
	res, err := inj.CampaignRandom(ctx, 200)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled campaign returned no partial result")
	}
	if res.N() == 0 || res.N() >= 200 {
		t.Fatalf("completed prefix has %d trials, want 0 < n < 200", res.N())
	}
	for i, tr := range res.Trials {
		if tr.Outcome == 0 {
			t.Fatalf("trial %d in returned prefix is unclassified", i)
		}
	}
	for i, line := range strings.Split(transcript(res), "\n") {
		if line == "" {
			continue
		}
		if line != fullLines[i] {
			t.Fatalf("prefix trial %d differs from uninterrupted run:\n got %q\nwant %q", i, line, fullLines[i])
		}
	}
	if got := len(res.Trials); res.Counts[Benign]+res.Counts[SDC]+res.Counts[Crash]+
		res.Counts[Hang]+res.Counts[Detected]+res.Counts[Errored] != got {
		t.Errorf("tallies do not cover the %d returned trials: %v", got, res.Counts)
	}
}

func TestCheckpointResumeBitForBit(t *testing.T) {
	// Kill a checkpointed campaign partway, corrupt the log tail the way a
	// kill mid-write would, then resume: the final result must reproduce
	// the uninterrupted campaign bit for bit.
	const n = 150
	path := filepath.Join(t.TempDir(), "trials.jsonl")

	full, err := newInjectorOpts(t, vulnerable, Options{Seed: 11, Workers: 4}).
		CampaignRandom(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Int64
	interrupted := newInjectorOpts(t, vulnerable, Options{
		Seed: 11, Workers: 4,
		TrialHook: func(target *ir.Instr, instance uint64, bit int, attempt int) error {
			if fired.Add(1) == 50 {
				cancel()
			}
			return nil
		},
	})
	partial, err := interrupted.Campaign(ctx, n, Run{Checkpoint: path})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if partial.N() == 0 || partial.N() >= n {
		t.Fatalf("interrupted campaign completed %d trials, want 0 < n < %d", partial.N(), n)
	}

	// Simulate a kill mid-append: a truncated half-written JSON line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"fn":"main","instr":4,"insta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resumed, err := newInjectorOpts(t, vulnerable, Options{Seed: 11, Workers: 4}).
		Campaign(context.Background(), n, Run{Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := transcript(resumed.CampaignResult), transcript(full); got != want {
		t.Errorf("resumed campaign differs from uninterrupted run:\n got: %q\nwant: %q", got, want)
	}
}

func TestCheckpointReplayShortCircuitsExecution(t *testing.T) {
	// Once a campaign is fully checkpointed, resuming it must replay from
	// the log without re-executing anything: an injector whose every trial
	// attempt panics still reproduces the clean result.
	const n = 60
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	clean := newInjectorOpts(t, vulnerable, Options{Seed: 13, Workers: 4})
	want, err := clean.Campaign(context.Background(), n, Run{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	poisoned := newInjectorOpts(t, vulnerable, Options{
		Seed: 13, Workers: 4,
		TrialHook: func(target *ir.Instr, instance uint64, bit int, attempt int) error {
			panic("trial executed despite full checkpoint")
		},
	})
	got, err := poisoned.Campaign(context.Background(), n, Run{Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Counts[Errored] != 0 {
		t.Fatalf("%d trials re-executed (and panicked) on resume", got.Counts[Errored])
	}
	if transcript(got.CampaignResult) != transcript(want.CampaignResult) {
		t.Error("replayed campaign differs from original")
	}
}

func TestCheckpointRejectsForeignCampaign(t *testing.T) {
	// A log written for one (module, seed) must not silently corrupt a
	// different campaign's results.
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	if _, err := newInjectorOpts(t, vulnerable, Options{Seed: 1}).
		Campaign(context.Background(), 20, Run{Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	_, err := newInjectorOpts(t, vulnerable, Options{Seed: 2}).
		Campaign(context.Background(), 20, Run{Checkpoint: path})
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Errorf("seed mismatch err = %v, want 'different campaign'", err)
	}
}

func TestResumeRequiresExistingCheckpoint(t *testing.T) {
	inj := newInjectorOpts(t, vulnerable, Options{Seed: 1})
	_, err := inj.Campaign(context.Background(), 20, Run{Checkpoint: filepath.Join(t.TempDir(), "missing.jsonl"), Resume: true})
	if err == nil || !strings.Contains(err.Error(), "no checkpoint") {
		t.Errorf("err = %v, want 'no checkpoint'", err)
	}
}

func TestIntnUniformSmall(t *testing.T) {
	// Rejection sampling removes modulo bias; for a small non-power-of-two
	// n the buckets of fault's sampling stream must be near-uniform, and
	// Intn must stay in range.
	r := newRNG(42)
	const n, draws = 6, 60000
	var buckets [n]int
	for i := 0; i < draws; i++ {
		v := r.Intn(n)
		if v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
		buckets[v]++
	}
	want := draws / n
	for i, c := range buckets {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d has %d draws, want ~%d", i, c, want)
		}
	}
}

// TestShardSeedIndependence is the shard-transparency differential. A
// server job's shards multiply its trial workers, and its result is
// replayed from the job's one log. For the same (program, fault model,
// seed), a campaign run that way must replay per-trial records
// identical to the direct campaign for every shard count in
// {1, 2, 3, 7}: the shard count must never leak into sampling. The log
// is written by a fresh injector and replayed by the direct one, so the
// test also covers cross-injector determinism. Subtests run on the
// production interpreter ("decoded").
func TestShardSeedIndependence(t *testing.T) {
	const n, seed = 70, 1234
	for _, name := range []string{"pathfinder", "nw"} {
		t.Run(name+"/decoded", func(t *testing.T) {
			build := mustProg(t, name).Build
			direct, err := New(build(), Options{Seed: seed, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			want, err := direct.CampaignRandom(context.Background(), n)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 3, 7} {
				inj, err := New(build(), Options{Seed: seed, Workers: 2 * shards})
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(t.TempDir(), "trials.jsonl")
				if _, err := inj.Campaign(context.Background(), n, Run{Checkpoint: path}); err != nil {
					t.Fatal(err)
				}
				got, missing, err := direct.FromCheckpoint(n, path)
				if err != nil {
					t.Fatal(err)
				}
				if missing != 0 {
					t.Fatalf("%d shards: log missing %d trials", shards, missing)
				}
				if got.N() != want.N() {
					t.Fatalf("%d shards: replayed %d trials, want %d", shards, got.N(), want.N())
				}
				for i := range want.Trials {
					if got.Trials[i] != want.Trials[i] {
						t.Errorf("%d shards: trial %d diverged: got %+v want %+v",
							shards, i, got.Trials[i], want.Trials[i])
					}
				}
				for o, c := range want.Counts {
					if got.Counts[o] != c {
						t.Errorf("%d shards: outcome %s count %d, want %d", shards, o, got.Counts[o], c)
					}
				}
			}
		})
	}
}

// TestShardResumeAfterInterrupt: a job's campaign cancelled mid-run (a
// server drain) resumes from its log under a fresh injector with a
// different worker count (a restarted server, a different shard count),
// and the log still replays into the uninterrupted campaign bit for bit.
func TestShardResumeAfterInterrupt(t *testing.T) {
	const n, seed = 60, 99
	build := mustProg(t, "pathfinder").Build
	direct, err := New(build(), Options{Seed: seed, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.CampaignRandom(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	// First run: cancel after a few completions.
	func() {
		inj, err := New(build(), Options{Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		inj.opts.OnProgress = func(p Progress) {
			seen++
			if seen == 5 {
				cancel()
			}
		}
		defer cancel()
		res, err := inj.Campaign(ctx, n, Run{Checkpoint: path})
		if err == nil || res.N() >= n {
			t.Fatalf("cancelled campaign ran %d of %d trials, err %v", res.N(), n, err)
		}
	}()
	// Resume: a fresh injector finishes from the log.
	inj, err := New(build(), Options{Seed: seed, Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inj.Campaign(context.Background(), n, Run{Checkpoint: path, Resume: true}); err != nil {
		t.Fatal(err)
	}
	got, missing, err := direct.FromCheckpoint(n, path)
	if err != nil {
		t.Fatal(err)
	}
	if missing != 0 {
		t.Fatalf("log missing %d trials", missing)
	}
	for i := range want.Trials {
		if got.Trials[i] != want.Trials[i] {
			t.Errorf("trial %d diverged after interrupt+resume: got %+v want %+v",
				i, got.Trials[i], want.Trials[i])
		}
	}
}
