// This file runs an admitted job: one fault.Campaign over the job's one
// checkpoint log, then the job's result replayed from that log by the
// injector that ran the campaign — or, on a result-cache hit, replayed
// by that injector from the cached log with no campaign at all. A job's
// shards only multiply its trial workers (SubmitRequest.Shards).
//
// Cancellation has three distinct causes with three distinct outcomes:
//
//	client cancel  → terminal "cancelled", best-effort partial result
//	wall budget    → terminal "partial", the budget is in the error
//	server drain   → NOT terminal: the job re-queues on disk and a
//	                 restarted server resumes it from its log
//
// which is why runJob inspects *why* the context died, not just that it
// died. Any other campaign error (a module that fails to build, a golden
// run that fails, a log header from another campaign, a log write
// failure) would repeat on a retry, so it ends the job: partial with the
// trials the log holds, or failed when it holds none. Transient trial
// failures are retried per trial (SubmitRequest.MaxRetries).

package server

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"trident/internal/fault"
	"trident/internal/ir"
	"trident/internal/telemetry"
)

// trialsPath names the job's checkpoint log in its spool directory.
func trialsPath(dir string) string {
	return filepath.Join(dir, "trials.jsonl")
}

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
	j.setState(JobRunning, "")

	// The job's one injector names its campaign for the result cache
	// and, on a miss, runs it.
	inj, runErr := s.newInjector(j)
	name := ""
	if runErr == nil && s.cacheDir != "" {
		name = inj.CheckpointHash(j.req.N)
		if res := s.cachedResult(j, inj, name); res != nil {
			j.setResult(res)
			j.setState(JobDone, "")
			s.met.jobEnd(JobDone, start)
			span.EndWith(telemetry.Attrs{"state": string(JobDone), "cached": true})
			return
		}
	}
	if runErr == nil {
		_, runErr = inj.Campaign(runCtx, j.req.N, fault.Run{Checkpoint: trialsPath(j.dir)})
	}

	// Why did we stop? Drain re-queues; everything else terminates. A
	// campaign that finished before the drain reached it has nothing
	// left to resume — it terminates normally.
	if runErr != nil && parent.Err() != nil && !j.clientCancelled() {
		// Server drain: the log holds every completed trial; park the
		// job as queued so a restart resumes it.
		j.setState(JobQueued, "")
		s.met.jobEnd(JobQueued, start)
		span.EndWith(telemetry.Attrs{"state": "requeued", "drain": true})
		return
	}

	state, errMsg := s.classify(runCtx, j, runErr)
	var res *Result
	err := runErr
	if inj != nil {
		res, err = s.buildResult(j, inj, trialsPath(j.dir), runErr)
	}
	if res == nil {
		state, errMsg = JobFailed, err.Error()
	} else {
		if res.Missing > 0 && state == JobDone {
			state = JobPartial
			if errMsg == "" {
				errMsg = fmt.Sprintf("%d of %d trials missing", res.Missing, j.req.N)
			}
		}
		res.State = string(state)
		j.setResult(res)
		s.storeResult(j, name, state, res)
	}
	s.finishJob(j, span, start, state, errMsg)
}

func (s *Server) finishJob(j *Job, span *telemetry.Span, start time.Time, state JobState, errMsg string) {
	j.setState(state, errMsg)
	s.met.jobEnd(state, start)
	span.EndWith(telemetry.Attrs{"state": string(state), "err": errMsg})
}

// classify names the job's terminal state from why its campaign
// stopped.
func (s *Server) classify(runCtx context.Context, j *Job, runErr error) (JobState, string) {
	switch {
	case j.clientCancelled():
		return JobCancelled, "cancelled by client"
	case runErr == nil:
		return JobDone, ""
	case errors.Is(runCtx.Err(), context.DeadlineExceeded):
		return JobPartial, fmt.Sprintf("wall-clock budget (%v) exhausted", j.req.WallBudget(s.limits))
	}
	return JobPartial, runErr.Error()
}

// newInjector builds the injector the job's campaign runs on (its
// golden run included). Campaign and interpreter telemetry goes to the
// server's registry, and the golden-run, snapshot-capture and campaign
// spans to the server's trace, inside the job's span.
func (s *Server) newInjector(j *Job) (*fault.Injector, error) {
	mod, err := j.req.BuildModule()
	if err != nil {
		return nil, err
	}
	opts := j.req.FaultOptions()
	opts.Metrics = s.cfg.Metrics
	opts.Trace = s.cfg.Trace
	opts.OnProgress = j.setProgress
	if d := s.cfg.ChaosTrialDelay; d > 0 {
		// Crash drills hold campaigns open long enough to kill the
		// server mid-flight.
		opts.TrialHook = func(*ir.Instr, uint64, int, int) error {
			time.Sleep(d)
			return nil
		}
	}
	return fault.New(mod, opts)
}

// buildResult replays the log at path — the job's own, or a result
// cache entry — on the job's injector; no trial re-executes. For done
// jobs this is the bit-identity path; for degraded and cancelled jobs it
// salvages every completed trial. A campaign that stopped on its own
// error with nothing in the log yields no result, only that error.
func (s *Server) buildResult(j *Job, inj *fault.Injector, path string, runErr error) (*Result, error) {
	res, missing, err := inj.FromCheckpoint(j.req.N, path)
	if err != nil {
		return nil, err
	}
	if res.N() == 0 && runErr != nil &&
		!errors.Is(runErr, context.Canceled) && !errors.Is(runErr, context.DeadlineExceeded) {
		return nil, runErr
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
	return out
}
