// This file runs shard workers — the processes (or goroutines) that
// execute one shard of a job's trial range against its own checkpoint.
//
// Two modes implement the same shardRunner contract. inproc runs the
// shard in this process: cheap, used by default and by most tests. exec
// re-executes the server binary as a child per shard: the shard then
// has a kernel-enforced failure domain — it can be SIGKILLed (the chaos
// drill in scripts/servercheck.sh does exactly that) without taking the
// server down, and the supervisor's retry-from-checkpoint path handles
// the corpse like any other shard failure. Either way the only durable
// artifact is the shard's checkpoint log, which is why a shard can be
// retried, killed, or moved across a server restart without losing
// completed trials.

package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"trident/internal/fault"
	"trident/internal/ir"
	"trident/internal/sigctx"
	"trident/internal/telemetry"
)

// shardProgress carries a shard's live progress to the supervisor.
type shardProgress struct {
	done   int
	counts [int(fault.Errored) + 1]int
}

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
	runShard(ctx context.Context, j *Job, shard int, phase shardPhase, progress func(shardProgress)) error
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

// runShardCampaign runs one phase of one shard of req's campaign against
// the job dir's checkpoints, under the sampling design the job's options
// select: adaptive waves run their pilot slice or the plan-thinned main
// slice (the plan re-derived from the merged pilot log), stratified jobs
// execute only the deterministically thinned subset of their slot range,
// plain jobs the whole range.
func runShardCampaign(ctx context.Context, inj *fault.Injector, req *SubmitRequest, shard int, phase shardPhase, dir string) error {
	run := fault.Run{Checkpoint: shardCheckpointPath(dir, shard), Shard: shard, Shards: req.Shards, Wave: phase}
	switch phase {
	case phasePilot:
		run.Checkpoint = pilotShardCheckpointPath(dir, shard)
	case phaseMain:
		run.PilotLog = pilotMergedPath(dir)
	}
	_, err := inj.Campaign(ctx, req.N, run)
	return err
}

// chaosHook returns a per-trial delay TrialHook — the crash drills use
// it to hold campaigns open long enough to kill things mid-flight.
func chaosHook(d time.Duration) func(*ir.Instr, uint64, int, int) error {
	return func(*ir.Instr, uint64, int, int) error {
		time.Sleep(d)
		return nil
	}
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

func (r *inprocRunner) runShard(ctx context.Context, j *Job, shard int, phase shardPhase, progress func(shardProgress)) error {
	mod, err := j.req.BuildModule()
	if err != nil {
		return err
	}
	opts := j.req.faultOptions()
	opts.Metrics = r.metrics
	opts.OnProgress = func(p fault.Progress) {
		var sp shardProgress
		sp.done = p.Done
		copy(sp.counts[:], p.Counts[:])
		progress(sp)
	}
	if r.chaos > 0 {
		opts.TrialHook = chaosHook(r.chaos)
	}
	inj, err := fault.New(mod, opts)
	if err != nil {
		return err
	}
	return runShardCampaign(ctx, inj, j.req, shard, phase, j.dir)
}

// execRunner runs each shard attempt as a child process: the server
// binary re-executed with -worker-dir/-worker-shard (see RunWorker).
// The child reports progress as Event JSONL on stdout; on cancellation
// it gets SIGTERM and grace to flush, then SIGKILL. A child that dies
// without finishing — killed, OOMed, crashed — surfaces as an error and
// is retried from its checkpoint by the supervisor.
type execRunner struct {
	path  string        // binary to exec (the server's own binary)
	grace time.Duration // TERM→KILL grace on cancellation
	chaos time.Duration // forwarded to the child for crash drills
}

func (r *execRunner) runShard(ctx context.Context, j *Job, shard int, phase shardPhase, progress func(shardProgress)) error {
	args := []string{
		"-worker-dir", j.dir,
		"-worker-shard", fmt.Sprint(shard),
	}
	if phase != phaseWhole {
		args = append(args, "-worker-phase", string(phase))
	}
	if r.chaos > 0 {
		args = append(args, "-chaos-trial-delay", r.chaos.String())
	}
	cmd := exec.Command(r.path, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("server: shard %d: %w", shard, err)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("server: shard %d: %w", shard, err)
	}

	// Reap the child on cancellation: TERM first so it can flush its
	// checkpoint tail, KILL once the grace expires.
	killDone := make(chan struct{})
	var killWG sync.WaitGroup
	killWG.Add(1)
	go func() {
		defer killWG.Done()
		select {
		case <-killDone:
		case <-ctx.Done():
			_ = cmd.Process.Signal(syscall.SIGTERM)
			grace := r.grace
			if grace <= 0 {
				grace = 5 * time.Second
			}
			select {
			case <-killDone:
			case <-time.After(grace):
				_ = cmd.Process.Kill()
			}
		}
	}()

	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev Event
		if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Type != "progress" {
			continue
		}
		var sp shardProgress
		sp.done = ev.Done
		for name, c := range ev.Counts {
			if o, ok := fault.OutcomeFromName(name); ok {
				sp.counts[o] = c
			}
		}
		progress(sp)
	}
	waitErr := cmd.Wait()
	close(killDone)
	killWG.Wait()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if waitErr != nil {
		msg := strings.TrimSpace(stderr.String())
		if len(msg) > 512 {
			msg = "… " + msg[len(msg)-512:]
		}
		if msg != "" {
			return fmt.Errorf("server: shard %d worker: %v: %s", shard, waitErr, msg)
		}
		return fmt.Errorf("server: shard %d worker: %v", shard, waitErr)
	}
	return nil
}

// RunWorker is the shard-worker process entry point, invoked by
// cmd/fiserver (and the test binary) when -worker-dir is present. It
// loads the job's submission from dir, runs shard's slice of the given
// campaign phase ("" for single-phase jobs, "pilot"/"main" for adaptive
// waves) against the shard checkpoint, and emits progress Events as
// JSONL on stdout. The exit code follows the repo convention: 0 on
// completion, 130/143 when a signal interrupted it (checkpoint intact,
// the parent retries from it), 1 on error.
func RunWorker(dir string, shard int, phase string, chaos time.Duration) int {
	var meta jobMeta
	if err := readJSONFile(filepath.Join(dir, "job.json"), &meta); err != nil {
		fmt.Fprintf(os.Stderr, "fiserver worker: %v\n", err)
		return 1
	}
	req := meta.Req
	if req == nil || shard < 0 || req.Shards < 1 || shard >= req.Shards {
		fmt.Fprintf(os.Stderr, "fiserver worker: bad job or shard %d/%v\n", shard, req)
		return 1
	}
	switch shardPhase(phase) {
	case phaseWhole:
		if req.StratifyAdaptive {
			fmt.Fprintf(os.Stderr, "fiserver worker: adaptive job needs a -worker-phase\n")
			return 1
		}
	case phasePilot, phaseMain:
		if !req.StratifyAdaptive {
			fmt.Fprintf(os.Stderr, "fiserver worker: -worker-phase %q on a non-adaptive job\n", phase)
			return 1
		}
	default:
		fmt.Fprintf(os.Stderr, "fiserver worker: unknown -worker-phase %q\n", phase)
		return 1
	}
	ctx, stop, fired := sigctx.WithSignals(context.Background())
	defer stop()

	mod, err := req.BuildModule()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fiserver worker: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	opts := req.faultOptions()
	// OnProgress runs under the campaign's result lock, so the encoder
	// needs no extra synchronization.
	opts.OnProgress = func(p fault.Progress) {
		ev := Event{Type: "progress", Done: p.Done, Total: p.Total, ElapsedMS: p.Elapsed.Milliseconds()}
		ev.Counts = make(map[string]int)
		for o := fault.Outcome(1); o <= fault.Errored; o++ {
			if c := p.Counts[o]; c > 0 {
				ev.Counts[o.String()] = c
			}
		}
		_ = enc.Encode(ev)
	}
	if chaos > 0 {
		opts.TrialHook = chaosHook(chaos)
	}
	inj, err := fault.New(mod, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fiserver worker: %v\n", err)
		return 1
	}
	if err := runShardCampaign(ctx, inj, req, shard, shardPhase(phase), dir); err != nil {
		if sig := fired(); sig != nil {
			// Interrupted: completed trials are in the checkpoint; the
			// supervisor resumes from there.
			return sigctx.ExitCode(sig)
		}
		fmt.Fprintf(os.Stderr, "fiserver worker: %v\n", err)
		return 1
	}
	return 0
}
