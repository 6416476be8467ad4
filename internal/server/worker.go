// This file runs shard workers — the goroutines that execute one shard
// of a job's trial range against its own checkpoint.
//
// Every shard runs inside the server process. The interpreter already
// isolates each trial (panics become fault.EngineError; instruction
// budgets, call-depth caps and the watchdog bound runaway trials), so
// the failure domain of the service is the server process itself: a
// killed server restarts over its spool and resumes every job from its
// shard checkpoints (the chaos drill in scripts/servercheck.sh SIGKILLs
// it mid-campaign). The only durable artifact of a shard is its
// checkpoint log, which is why a shard can be retried, or moved across a
// server restart, without losing completed trials.

package server

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"trident/internal/fault"
	"trident/internal/ir"
	"trident/internal/telemetry"
)

// shardPhase selects which slice of a job's campaign a shard attempt
// runs — a fault.Wave. Plain and statically-stratified jobs have a
// single phase (phaseWhole); adaptive jobs run a pilot wave, a
// cross-shard merge, then a main wave (see Server.runAdaptiveWaves).
type shardPhase = fault.Wave

const (
	phaseWhole = fault.WaveAll   // the shard's entire slot range
	phasePilot = fault.WavePilot // the static-shape pilot-prefix slice (adaptive wave 1)
	phaseMain  = fault.WaveMain  // the plan-thinned main-phase slice (adaptive wave 2)
)

// shardRunner executes one attempt of one phase of one shard of a job.
// The attempt must leave the shard's checkpoint log consistent whether
// it returns nil, an error, or is cancelled — retries and restarts
// resume from it.
type shardRunner interface {
	runShard(ctx context.Context, j *Job, shard int, phase shardPhase, progress func(fault.Progress)) error
}

// shardCheckpointPath names shard s's checkpoint log in a job dir (the
// main-phase log for adaptive jobs).
func shardCheckpointPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%02d.jsonl", shard))
}

// pilotShardCheckpointPath names shard s's pilot-wave checkpoint log.
func pilotShardCheckpointPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("pilot-shard-%02d.jsonl", shard))
}

// pilotMergedPath names the merged pilot log every main-wave worker
// re-derives the Neyman plan from.
func pilotMergedPath(dir string) string {
	return filepath.Join(dir, "pilot.jsonl")
}

func mergedCheckpointPath(dir string) string {
	return filepath.Join(dir, "merged.jsonl")
}

// inprocRunner runs shards inside the server process. Every attempt
// builds a fresh module and injector, so concurrent shards of the same
// job never share mutable interpreter state, and a retried attempt
// starts from a clean engine plus the shard's checkpoint. Campaign and
// interpreter telemetry of every shard goes to the server's registry.
type inprocRunner struct {
	chaos   time.Duration // per-trial delay for crash drills (0 = none)
	metrics *telemetry.Registry
}

// runShard runs one phase of one shard of the job's campaign against the
// job dir's checkpoints, under the sampling design the job's options
// select: adaptive waves run their pilot slice or the plan-thinned main
// slice (the plan re-derived from the merged pilot log), stratified jobs
// execute only the deterministically thinned subset of their slot range,
// plain jobs the whole range.
func (r *inprocRunner) runShard(ctx context.Context, j *Job, shard int, phase shardPhase, progress func(fault.Progress)) error {
	mod, err := j.req.BuildModule()
	if err != nil {
		return err
	}
	opts := j.req.faultOptions()
	opts.Metrics = r.metrics
	opts.OnProgress = progress
	if r.chaos > 0 {
		// Crash drills hold campaigns open long enough to kill the
		// server mid-flight.
		opts.TrialHook = func(*ir.Instr, uint64, int, int) error {
			time.Sleep(r.chaos)
			return nil
		}
	}
	inj, err := fault.New(mod, opts)
	if err != nil {
		return err
	}
	run := fault.Run{Checkpoint: shardCheckpointPath(j.dir, shard), Shard: shard, Shards: j.req.Shards, Wave: phase}
	switch phase {
	case phasePilot:
		run.Checkpoint = pilotShardCheckpointPath(j.dir, shard)
	case phaseMain:
		run.PilotLog = pilotMergedPath(j.dir)
	}
	_, err = inj.Campaign(ctx, j.req.N, run)
	return err
}
