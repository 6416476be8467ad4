// This file is the shard supervisor: it runs an admitted job's shards
// through the configured runner, retries crashed shards from their own
// checkpoints with jittered exponential backoff, and classifies the
// job's terminal state. Crash tolerance is bounded — a shard that keeps
// dying exhausts its retry budget and the job degrades to a partial
// result carrying that shard's error, rather than retrying forever or
// discarding the shards that succeeded.
//
// Cancellation has three distinct causes with three distinct outcomes:
//
//	client cancel  → terminal "cancelled", best-effort partial result
//	wall budget    → terminal "partial", the budget is in the error
//	server drain   → NOT terminal: the job re-queues on disk and a
//	                 restarted server resumes it from its checkpoints
//
// which is why the supervisor inspects *why* the context died, not just
// that it died.

package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"trident/internal/fault"
	"trident/internal/telemetry"
)

// runJob drives one job from running to its terminal (or re-queued)
// state. parent is the server's run context — it dies on drain.
func (s *Server) runJob(parent context.Context, j *Job) {
	start := time.Now()
	s.met.jobStart()
	span := s.cfg.Trace.Start("job", telemetry.Attrs{
		"id": j.ID, "program": j.req.ModuleName(), "n": j.req.N, "shards": j.req.Shards,
	})

	jobCtx, cancelJob := context.WithCancel(parent)
	defer cancelJob()
	budget := j.req.WallBudget(s.limits)
	runCtx, cancelBudget := context.WithTimeout(jobCtx, budget)
	defer cancelBudget()

	j.mu.Lock()
	j.cancel = cancelJob
	j.started = start
	alreadyCancelled := j.cancelled
	j.mu.Unlock()
	if alreadyCancelled {
		// Cancelled between pop and start.
		s.finishJob(j, span, start, JobCancelled, "cancelled before start")
		return
	}
	// Result-cache short circuit: a clean, complete result for this exact
	// campaign (module hash + model + seed + n) skips sharding entirely.
	if res, ok := s.lookupResult(j); ok {
		j.setResult(res)
		j.setState(JobDone, "")
		s.met.jobEnd(JobDone, start)
		span.EndWith(telemetry.Attrs{"state": string(JobDone), "cached": true})
		return
	}
	j.setState(JobRunning, "")

	var waveErr error
	if j.req.StratifyAdaptive {
		waveErr = s.runAdaptiveWaves(runCtx, j)
	} else {
		s.runWave(runCtx, j, phaseWhole, nil)
	}

	// Why did we stop? Drain re-queues; everything else terminates. A
	// job whose shards all finished before the drain reached them has
	// nothing left to resume — it falls through and terminates normally.
	if runCtx.Err() != nil && parent.Err() != nil && !j.clientCancelled() && !j.allShardsDone() {
		// Server drain: shard checkpoints are flushed (every completed
		// trial is already on disk); park the job as queued so a restart
		// resumes it.
		j.setState(JobQueued, "")
		s.met.jobEnd(JobQueued, start)
		span.EndWith(telemetry.Attrs{"state": "requeued", "drain": true})
		return
	}

	state, errMsg := s.classify(runCtx, j)
	if waveErr != nil && state == JobDone {
		state, errMsg = JobFailed, waveErr.Error()
	}
	res, rerr := s.buildResult(j, state)
	if rerr != nil {
		state, errMsg = JobFailed, rerr.Error()
	} else {
		if res.Missing > 0 && state == JobDone {
			state = JobPartial
			if errMsg == "" {
				errMsg = fmt.Sprintf("%d of %d trials missing", res.Missing, j.req.N)
			}
		}
		res.State = string(state)
		j.setResult(res)
		s.storeResult(j, state, res)
	}
	s.finishJob(j, span, start, state, errMsg)
}

func (s *Server) finishJob(j *Job, span *telemetry.Span, start time.Time, state JobState, errMsg string) {
	j.setState(state, errMsg)
	s.met.jobEnd(state, start)
	span.EndWith(telemetry.Attrs{"state": string(state), "err": errMsg})
}

// classify folds the shards' final states into the job's.
func (s *Server) classify(runCtx context.Context, j *Job) (JobState, string) {
	if j.clientCancelled() {
		return JobCancelled, "cancelled by client"
	}
	if errors.Is(runCtx.Err(), context.DeadlineExceeded) {
		return JobPartial, fmt.Sprintf("wall-clock budget (%v) exhausted", j.req.WallBudget(s.limits))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var failed []string
	for i := range j.shards {
		if j.shards[i].state == "failed" {
			failed = append(failed, fmt.Sprintf("shard %d: %s", i, j.shards[i].err))
		}
	}
	if len(failed) > 0 {
		return JobPartial, strings.Join(failed, "; ")
	}
	return JobDone, ""
}

// runWave supervises every shard through one phase of the campaign,
// blocking until all of them reach a per-wave terminal state. base, when
// non-nil, carries each shard's progress from earlier waves so status
// counts stay cumulative across an adaptive job's two waves.
func (s *Server) runWave(ctx context.Context, j *Job, phase shardPhase, base []fault.Progress) {
	var wg sync.WaitGroup
	for i := 0; i < j.req.Shards; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			var b fault.Progress
			if base != nil {
				b = base[shard]
			}
			s.superviseShard(ctx, j, shard, phase, b)
		}(i)
	}
	wg.Wait()
}

// runAdaptiveWaves drives an adaptive job's two-wave protocol: every
// shard runs its slice of the static-shape pilot prefix, the pilot logs merge
// into one, and — only once every pilot slice completed, since the
// Neyman plan is a function of the full pilot — the main wave thins each
// shard's remaining slots under the plan each worker re-derives from the
// merged log. A pilot wave degraded by failed or cancelled shards stops
// here; buildResult then salvages the executed pilot records under the
// pilot plan.
func (s *Server) runAdaptiveWaves(ctx context.Context, j *Job) error {
	s.runWave(ctx, j, phasePilot, nil)
	if ctx.Err() != nil || !j.allShardsDone() {
		return nil
	}
	srcs := make([]string, 0, j.req.Shards)
	for i := 0; i < j.req.Shards; i++ {
		srcs = append(srcs, pilotShardCheckpointPath(j.dir, i))
	}
	if _, err := fault.MergeCheckpoints(pilotMergedPath(j.dir), srcs...); err != nil {
		return fmt.Errorf("server: job %s: pilot merge: %w", j.ID, err)
	}
	s.runWave(ctx, j, phaseMain, j.shardBases())
	return nil
}

// superviseShard runs one phase of one shard to completion, retrying
// failures from the shard's checkpoint until the retry budget runs out.
func (s *Server) superviseShard(ctx context.Context, j *Job, shard int, phase shardPhase, base fault.Progress) {
	for attempt := 0; ; attempt++ {
		j.updateShard(shard, func(si *shardInfo) {
			si.state = "running"
			si.attempts = attempt + 1
		})
		s.met.shardRun(attempt)
		attrs := telemetry.Attrs{"job": j.ID, "shard": shard, "attempt": attempt + 1}
		if phase != phaseWhole {
			attrs["phase"] = string(phase)
		}
		span := s.cfg.Trace.Start("shard", attrs)
		err := s.runner.runShard(ctx, j, shard, phase, func(p fault.Progress) {
			j.updateShard(shard, func(si *shardInfo) {
				si.progress.Done = base.Done + p.Done
				for o := range p.Counts {
					si.progress.Counts[o] = base.Counts[o] + p.Counts[o]
				}
			})
		})
		if err == nil {
			j.updateShard(shard, func(si *shardInfo) { si.state = "done" })
			span.EndWith(telemetry.Attrs{"state": "done"})
			return
		}
		if ctx.Err() != nil {
			j.updateShard(shard, func(si *shardInfo) { si.state = "cancelled" })
			span.EndWith(telemetry.Attrs{"state": "cancelled"})
			return
		}
		if attempt >= s.cfg.ShardRetries {
			s.met.shardFailed()
			j.updateShard(shard, func(si *shardInfo) {
				si.state = "failed"
				si.err = fmt.Sprintf("%v (after %d attempts)", err, attempt+1)
			})
			span.EndWith(telemetry.Attrs{"state": "failed", "err": err.Error()})
			return
		}
		delay := backoffDelay(s.cfg.RetryBase, attempt, j.req.Seed, shard)
		span.EndWith(telemetry.Attrs{"state": "retry", "err": err.Error(), "backoff_ms": delay.Milliseconds()})
		select {
		case <-ctx.Done():
			j.updateShard(shard, func(si *shardInfo) { si.state = "cancelled" })
			return
		case <-time.After(delay):
		}
	}
}

// backoffDelay is exponential backoff with deterministic splitmix64
// jitter: base·2^attempt scaled into [50%, 100%] by a hash of
// (seed, shard, attempt). Deterministic jitter keeps crash-retry tests
// reproducible while still decorrelating shards that died together.
func backoffDelay(base time.Duration, attempt int, seed uint64, shard int) time.Duration {
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	if attempt > 16 {
		attempt = 16
	}
	d := base << uint(attempt)
	const maxDelay = 30 * time.Second
	if d > maxDelay {
		d = maxDelay
	}
	h := seed ^ uint64(shard)<<32 ^ uint64(attempt)<<16
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	// Scale into [d/2, d].
	return d/2 + time.Duration(h%uint64(d/2+1))
}

// buildResult merges whatever shard checkpoints exist and reconstructs
// the campaign result from the merged log — replay only, no trial
// re-executes. For done jobs this is the bit-identity path; for
// degraded and cancelled jobs it salvages every completed trial.
func (s *Server) buildResult(j *Job, state JobState) (*Result, error) {
	var srcs []string
	if j.req.StratifyAdaptive {
		// Adaptive jobs keep pilot and main records in separate per-shard
		// logs; the final merge folds both waves.
		for i := 0; i < j.req.Shards; i++ {
			p := pilotShardCheckpointPath(j.dir, i)
			if _, err := os.Stat(p); err == nil {
				srcs = append(srcs, p)
			}
		}
	}
	for i := 0; i < j.req.Shards; i++ {
		p := shardCheckpointPath(j.dir, i)
		if _, err := os.Stat(p); err == nil {
			srcs = append(srcs, p)
		}
	}
	if len(srcs) == 0 {
		if state == JobCancelled {
			// Nothing ran before the cancel: an empty result, not an error.
			return &Result{ID: j.ID, N: j.req.N, Missing: j.req.N, Counts: map[string]int{}, Trials: []TrialRecord{}}, nil
		}
		return nil, fmt.Errorf("server: job %s: no shard checkpoints to merge", j.ID)
	}
	merged := mergedCheckpointPath(j.dir)
	if _, err := fault.MergeCheckpoints(merged, srcs...); err != nil {
		return nil, err
	}
	mod, err := j.req.BuildModule()
	if err != nil {
		return nil, err
	}
	// The merge only replays the log and runs no trial, so it skips the
	// snapshot-capture pass each shard already paid for.
	opts := j.req.faultOptions()
	opts.SnapshotInterval = -1
	inj, err := fault.New(mod, opts)
	if err != nil {
		return nil, err
	}
	res, missing, err := inj.FromCheckpoint(j.req.N, merged)
	if err != nil {
		return nil, err
	}
	out := resultToWire(j, res.CampaignResult, missing)
	if j.req.Stratify || j.req.StratifyAdaptive {
		out.Stratified = true
		out.Adaptive = j.req.StratifyAdaptive
		out.PilotExecuted = res.PilotExecuted
		out.ExecutedN = res.ExecutedN()
		out.WeightedSDC = res.WeightedSDC()
		out.WeightedErrorBar95 = res.WeightedErrorBar95()
		out.EffectiveN = res.EffectiveN()
	}
	return out, nil
}

// wireTrials converts a campaign's trials into wire records, in
// sampling order — the unit of comparison for every bit-identity test.
func wireTrials(res *fault.CampaignResult) []TrialRecord {
	errByIndex := make(map[int]*fault.TrialError, len(res.Errs))
	for i := range res.Errs {
		errByIndex[res.Errs[i].Index] = &res.Errs[i]
	}
	out := make([]TrialRecord, 0, len(res.Trials))
	for i, tr := range res.Trials {
		out = append(out, fault.NewTrialRecord(tr, errByIndex[i]))
	}
	return out
}

// resultToWire converts a fault.CampaignResult into the wire Result.
func resultToWire(j *Job, res *fault.CampaignResult, missing int) *Result {
	out := &Result{
		ID:         j.ID,
		N:          j.req.N,
		Missing:    missing,
		Counts:     make(map[string]int),
		SDCProb:    res.SDCProb(),
		ErrorBar95: res.ErrorBar95(),
		Trials:     wireTrials(res),
	}
	for o, c := range res.Counts {
		if c > 0 {
			out.Counts[o.String()] = c
		}
	}
	st := j.status()
	for _, ss := range st.Shards {
		if ss.State == "failed" {
			out.FailedShards = append(out.FailedShards, ss)
		}
	}
	sort.Slice(out.FailedShards, func(a, b int) bool {
		return out.FailedShards[a].Shard < out.FailedShards[b].Shard
	})
	return out
}
