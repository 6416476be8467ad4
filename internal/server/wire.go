// This file defines the campaign server's wire protocol: the JSON
// submission, status, result and event-stream types, strict decoding
// (unknown fields rejected, size-capped bodies, no trailing garbage)
// and validation with field-attributed errors. The decode path is
// fuzzed (FuzzDecodeSubmit): whatever bytes arrive, the worst outcome
// is a *RequestError, never a panic and never a silently-misread
// campaign. Parsing is strict rather than lenient because a submission
// misread as something else re-runs hours of fault injection under the
// wrong parameters — there is no harmless interpretation of a typo.

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"trident/internal/bitlive"
	"trident/internal/fault"
	"trident/internal/ir"
	"trident/internal/progs"
)

// Limits bound what a single submission may ask of the server. The
// zero value of each field selects the default; the server clamps
// every job to these at admission, so one tenant cannot starve the
// queue with an unbounded campaign.
type Limits struct {
	// MaxTrials caps a job's trial count n (default 1_000_000).
	MaxTrials int
	// MaxShards caps a job's shard count (default 16).
	MaxShards int
	// MaxWorkers caps a job's per-shard trial workers (default 16).
	MaxWorkers int
	// MaxIRBytes caps the submitted IR text (default 4 MiB).
	MaxIRBytes int
	// MaxWall caps a job's wall-clock budget; jobs requesting none get
	// it as their budget (default 15 minutes).
	MaxWall time.Duration
}

func (l Limits) withDefaults() Limits {
	if l.MaxTrials <= 0 {
		l.MaxTrials = 1_000_000
	}
	if l.MaxShards <= 0 {
		l.MaxShards = 16
	}
	if l.MaxWorkers <= 0 {
		l.MaxWorkers = 16
	}
	if l.MaxIRBytes <= 0 {
		l.MaxIRBytes = 4 << 20
	}
	if l.MaxWall <= 0 {
		l.MaxWall = 15 * time.Minute
	}
	return l
}

// SubmitRequest is a campaign submission: a program (built-in benchmark
// name or IR text), the campaign shape, and optional per-job budgets.
// Field semantics mirror cmd/fi's flags and fault.Options.
type SubmitRequest struct {
	// Program names a built-in benchmark (exclusive with IR).
	Program string `json:"program,omitempty"`
	// IR is textual IR for the module under test (exclusive with Program).
	IR string `json:"ir,omitempty"`
	// N is the number of injection trials (required, ≥ 1).
	N int `json:"n"`
	// Seed drives the campaign's deterministic sampling.
	Seed uint64 `json:"seed,omitempty"`
	// Shards multiplies Workers: the job's campaign runs
	// Shards × Workers concurrent trials (0 = server default). Results
	// are bit-identical for every shard count.
	Shards int `json:"shards,omitempty"`
	// Workers is the trial worker count per shard (0 =
	// fault.DefaultWorkers).
	Workers int `json:"workers,omitempty"`
	// SnapshotInterval is the golden-snapshot spacing that trials resume
	// from (see fault.Options): 0 selects fault.DefaultSnapshotInterval,
	// -1 (any negative value) re-executes every trial in full.
	SnapshotInterval int `json:"snapshot_interval,omitempty"`
	// MaxRetries bounds per-trial retries of transient engine failures.
	MaxRetries int `json:"max_retries,omitempty"`
	// TrialTimeoutMS is the per-trial wall-clock watchdog in ms (0 = none).
	TrialTimeoutMS int64 `json:"trial_timeout_ms,omitempty"`
	// MaxWallMS is the job's wall-clock budget in ms (0 = server max).
	// A job exceeding it degrades to a partial result; it never runs
	// unbounded.
	MaxWallMS int64 `json:"max_wall_ms,omitempty"`
	// PruneBits enables static bit-liveness pruning (internal/bitlive):
	// trials on provably-masked bits are recorded Benign without
	// execution. Exact reweighting keeps the result bit-identical to an
	// unpruned campaign, but the result cache still keys on the pruning
	// masks so an analysis change can never replay stale entries.
	PruneBits bool `json:"prune_bits,omitempty"`
	// Stratify enables stratified live-bit importance sampling under the
	// default plan (bitlive.DefaultPlan): low-influence strata are thinned
	// deterministically and every executed trial carries its inverse
	// inclusion probability, so the result's weighted fields are unbiased
	// population estimates at a fraction of the executed trials. The
	// checkpoint header, whose hash names the result-cache entry, carries
	// the stratification hash, so a classifier or plan change can never
	// replay stale weighted results.
	Stratify bool `json:"stratify,omitempty"`
	// StratifyAdaptive enables two-phase adaptive (Neyman-allocation)
	// stratified sampling: the campaign first runs the pilot prefix of
	// the slot budget (static shape: live strata at rate 1,
	// provably-masked slots at the floor), the pilot outcomes derive a
	// Neyman plan, and the remaining slots are thinned under it. Pilot trials fold into the weighted estimate at the pilot
	// plan's 1/q, so executed trials never exceed n. Mutually exclusive with Stratify — an
	// adaptive campaign derives its own plan. The checkpoint header
	// carries the adaptive configuration hash, so a classifier or default
	// change can never replay stale weighted results.
	StratifyAdaptive bool `json:"stratify_adaptive,omitempty"`
}

// RequestError is a submission rejection attributable to one field —
// the 400-response payload.
type RequestError struct {
	// Field is the offending JSON field ("" for whole-body problems).
	Field string `json:"field,omitempty"`
	// Msg says what is wrong with it.
	Msg string `json:"msg"`
}

// Error implements error.
func (e *RequestError) Error() string {
	if e.Field == "" {
		return "server: bad request: " + e.Msg
	}
	return fmt.Sprintf("server: bad request: field %q: %s", e.Field, e.Msg)
}

func reqErr(field, format string, args ...any) *RequestError {
	return &RequestError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// DecodeSubmit strictly decodes one submission from r: unknown fields,
// trailing data and bodies over maxBytes are rejected. It never panics
// on malformed input (fuzzed).
func DecodeSubmit(r io.Reader, maxBytes int64) (*SubmitRequest, error) {
	if maxBytes <= 0 {
		maxBytes = 8 << 20
	}
	// Read one byte past the cap to distinguish "exactly at" from "over".
	data, err := io.ReadAll(io.LimitReader(r, maxBytes+1))
	if err != nil {
		return nil, reqErr("", "reading body: %v", err)
	}
	if int64(len(data)) > maxBytes {
		return nil, reqErr("", "body exceeds %d bytes", maxBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		return nil, reqErr("", "invalid JSON: %v", err)
	}
	if dec.More() {
		return nil, reqErr("", "trailing data after JSON object")
	}
	return &req, nil
}

// Validate checks the request against the server's limits, returning a
// field-attributed *RequestError on the first violation. It parses the
// embedded IR (or resolves the benchmark name) so malformed programs
// are rejected at admission, not after queueing.
func (req *SubmitRequest) Validate(lim Limits) error {
	lim = lim.withDefaults()
	switch {
	case req.Program == "" && req.IR == "":
		return reqErr("program", "one of program or ir is required")
	case req.Program != "" && req.IR != "":
		return reqErr("program", "program and ir are mutually exclusive")
	}
	if req.Program != "" {
		if _, err := progs.ByName(req.Program); err != nil {
			return reqErr("program", "%v", err)
		}
	}
	if req.IR != "" {
		if len(req.IR) > lim.MaxIRBytes {
			return reqErr("ir", "IR text exceeds %d bytes", lim.MaxIRBytes)
		}
		if _, err := ir.Parse(req.IR); err != nil {
			return reqErr("ir", "parse: %v", err)
		}
	}
	if req.N < 1 {
		return reqErr("n", "must be ≥ 1")
	}
	if req.N > lim.MaxTrials {
		return reqErr("n", "exceeds the server's trial budget (%d)", lim.MaxTrials)
	}
	if req.Shards < 0 || req.Shards > lim.MaxShards {
		return reqErr("shards", "must be in [0, %d]", lim.MaxShards)
	}
	if req.Workers < 0 || req.Workers > lim.MaxWorkers {
		return reqErr("workers", "must be in [0, %d]", lim.MaxWorkers)
	}
	if req.MaxRetries < 0 || req.MaxRetries > 16 {
		return reqErr("max_retries", "must be in [0, 16]")
	}
	if req.TrialTimeoutMS < 0 {
		return reqErr("trial_timeout_ms", "must be ≥ 0")
	}
	if req.MaxWallMS < 0 {
		return reqErr("max_wall_ms", "must be ≥ 0")
	}
	if req.MaxWallMS > lim.MaxWall.Milliseconds() {
		return reqErr("max_wall_ms", "exceeds the server's wall-clock budget (%v)", lim.MaxWall)
	}
	if req.Stratify && req.StratifyAdaptive {
		return reqErr("stratify_adaptive", "stratify and stratify_adaptive are mutually exclusive: an adaptive campaign derives its own plan")
	}
	return nil
}

// BuildModule constructs the module under test — fresh each call, so
// concurrent jobs never share mutable IR.
func (req *SubmitRequest) BuildModule() (*ir.Module, error) {
	return progs.Load(req.Program, req.IR)
}

// ModuleName returns the human-readable name of the program under test.
func (req *SubmitRequest) ModuleName() string {
	if req.Program != "" {
		return req.Program
	}
	return "ir"
}

// WallBudget resolves the job's effective wall-clock budget under lim.
func (req *SubmitRequest) WallBudget(lim Limits) time.Duration {
	lim = lim.withDefaults()
	if req.MaxWallMS <= 0 {
		return lim.MaxWall
	}
	d := time.Duration(req.MaxWallMS) * time.Millisecond
	if d > lim.MaxWall {
		return lim.MaxWall
	}
	return d
}

// FaultOptions maps the request onto fault.Options, running
// Shards × Workers trials at once; Shards 0 counts as 1, which is how
// cmd/fi runs a request locally (the server resolves a job's shards at
// admission). The caller supplies process-local concerns (telemetry,
// progress callback, trial hook).
func (req *SubmitRequest) FaultOptions() fault.Options {
	workers := req.Workers
	if workers == 0 {
		workers = fault.DefaultWorkers
	}
	opts := fault.Options{
		Seed:             req.Seed,
		Workers:          max(req.Shards, 1) * workers,
		MaxRetries:       req.MaxRetries,
		TrialTimeout:     time.Duration(req.TrialTimeoutMS) * time.Millisecond,
		SnapshotInterval: req.SnapshotInterval,
		PruneBits:        req.PruneBits,
	}
	if req.Stratify {
		plan := bitlive.DefaultPlan()
		opts.Stratify = &plan
	}
	if req.StratifyAdaptive {
		opts.Adaptive = &fault.AdaptiveConfig{}
	}
	return opts
}

// SubmitResponse acknowledges an accepted job.
type SubmitResponse struct {
	// ID is the job's durable identifier.
	ID string `json:"id"`
	// State is the job's state at admission (queued).
	State string `json:"state"`
}

// JobStatus is the job-level view: lifecycle state and progress.
type JobStatus struct {
	// ID is the job identifier.
	ID string `json:"id"`
	// State is queued, running, done, partial, failed or cancelled.
	State string `json:"state"`
	// Program names the program under test.
	Program string `json:"program"`
	// N is the requested trial count.
	N int `json:"n"`
	// Seed is the campaign seed.
	Seed uint64 `json:"seed"`
	// Done is the number of trials classified so far, including trials
	// replayed from the job's log after a restart.
	Done int `json:"done"`
	// Counts tallies classified trials by outcome name.
	Counts map[string]int `json:"counts,omitempty"`
	// Error describes a failed (or degraded) job.
	Error string `json:"error,omitempty"`
}

// TrialRecord is one classified trial on the wire: the checkpoint log's
// record type itself, so wire and log bytes cannot drift apart — the
// currency of the bit-identity acceptance tests.
type TrialRecord = fault.TrialRecord

// Result is a job's final (or partial) campaign result.
type Result struct {
	// ID is the job identifier.
	ID string `json:"id"`
	// State is the job's terminal state (done, partial, cancelled).
	State string `json:"state"`
	// N is the requested trial count.
	N int `json:"n"`
	// Missing is how many requested trials have no record — nonzero
	// only for degraded or cancelled jobs.
	Missing int `json:"missing,omitempty"`
	// Counts tallies trials by outcome name.
	Counts map[string]int `json:"counts"`
	// SDCProb is the measured SDC probability over classified trials.
	SDCProb float64 `json:"sdc_prob"`
	// ErrorBar95 is the Wilson 95% half-interval on SDCProb.
	ErrorBar95 float64 `json:"error_bar_95"`
	// Trials lists every recorded trial in sampling order.
	Trials []TrialRecord `json:"trials"`
	// Stratified marks a stratified job's result: Trials then holds only
	// the executed (thinned) subset of the N drawn slots, and the
	// weighted fields below carry the Horvitz-Thompson population
	// estimates. SDCProb/ErrorBar95 still describe the executed subset.
	Stratified bool `json:"stratified,omitempty"`
	// ExecutedN is the number of slots that survived thinning.
	ExecutedN int `json:"executed_n,omitempty"`
	// WeightedSDC is the inverse-probability-weighted SDC estimate over
	// all N slots; WeightedErrorBar95 is its 95% Wilson half-width at the
	// variance-matched effective sample size EffectiveN.
	WeightedSDC        float64 `json:"weighted_sdc,omitempty"`
	WeightedErrorBar95 float64 `json:"weighted_error_bar_95,omitempty"`
	EffectiveN         float64 `json:"effective_n,omitempty"`
	// Adaptive marks an adaptive (Neyman) job's result: the plan behind
	// the weighted fields was derived from a static-shape pilot prefix
	// rather than configured statically. PilotExecuted counts the pilot
	// trials, which fold into the weighted estimate at the pilot plan's
	// 1/q.
	Adaptive      bool `json:"adaptive,omitempty"`
	PilotExecuted int  `json:"pilot_executed,omitempty"`
	// Cached reports that the result was served from the server's
	// whole-job result cache without running the campaign.
	Cached bool `json:"cached,omitempty"`
}

// Event is one line of a job's JSONL event stream over HTTP.
type Event struct {
	// Type is "state", "progress" or "done".
	Type string `json:"type"`
	// State is the job state at emission.
	State string `json:"state,omitempty"`
	// Done/Total are the aggregate trial progress.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Counts tallies outcomes by name so clients can render live rates.
	Counts map[string]int `json:"counts,omitempty"`
	// ElapsedMS is wall time since the job started.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	// Error describes a failed or degraded terminal state.
	Error string `json:"error,omitempty"`
}
