// This file is the server's whole-job result cache: a thin layer over
// internal/cache that short-circuits a job before its campaign starts
// when a previous job already ran the identical campaign. The key is
// the content address of the campaign, not of the submission: the
// canonical module hash, the fault-model version, the seed and the
// trial count. Deliberately absent from the key:
//
//   - Shards, Workers and SnapshotInterval: performance knobs with no
//     effect on trial outcomes (the differential suites prove it), so a
//     4-shard job may serve an 8-shard submission's result.
//
// Only clean results enter the cache: terminal state done, zero
// missing trials, no errored trials. Degraded or
// cancelled jobs always re-run. The stored payload carries no job
// identity (ID, state) so hits from different jobs are byte-identical
// modulo the ID the server stamps on the way out.

package server

import (
	"fmt"
	"os"

	"trident/internal/bitlive"
	"trident/internal/fault"
	"trident/internal/hashutil"
)

// resultKeyKind names the payload schema of job-result entries. It is
// part of every stored key, so changing it orphans existing entries.
const resultKeyKind = "job-result"

// resultKey is the content address of a whole-job campaign result.
type resultKey struct {
	Kind       string `json:"kind"`
	ModuleHash string `json:"module_hash"`
	Model      string `json:"model"`
	Seed       uint64 `json:"seed"`
	N          int    `json:"n"`
	// Prune is the hex bitlive.Report.ModuleHash when the job prunes
	// masked bits, empty otherwise. Exact reweighting makes pruned and
	// unpruned outcomes identical when the analysis is sound, but the
	// soundness guarantee is versioned with the analysis — keying on the
	// mask hash means a bitlive rule change invalidates exactly the
	// pruned entries, and unpruned keys never move.
	Prune string `json:"prune,omitempty"`
	// Stratify is the stratification content address (influence table
	// hash folded with the plan hash, fault.StratifyHashFor) for
	// stratified jobs, empty otherwise. A stratified result holds a
	// thinned, reweighted trial subset, so it must never serve a plain
	// submission (or vice versa), and a classifier or plan change
	// invalidates exactly the stratified entries.
	Stratify string `json:"stratify,omitempty"`
	// Adaptive is the adaptive-campaign content address (influence table
	// hash folded with the pilot fraction and rate floor,
	// fault.AdaptiveHashFor) for adaptive jobs, empty otherwise. The
	// derived Neyman plan is a pure function of these plus the module,
	// seed and n already in the key, so the key never carries the plan
	// itself — and a classifier or default change invalidates exactly the
	// adaptive entries.
	Adaptive string `json:"adaptive,omitempty"`
}

// resultCacheKey derives j's cache key, or reports false when the
// cache is off or the module cannot be built (admission already
// validated it, so the latter is effectively unreachable).
func (s *Server) resultCacheKey(j *Job) (resultKey, bool) {
	if s.resultCache == nil {
		return resultKey{}, false
	}
	mod, err := j.req.BuildModule()
	if err != nil {
		return resultKey{}, false
	}
	prune := ""
	if j.req.PruneBits {
		prune = hashutil.Hex(bitlive.Analyze(mod).ModuleHash(mod))
	}
	stratify := ""
	if j.req.Stratify {
		stratify = fault.StratifyHashFor(mod, bitlive.DefaultPlan())
	}
	adaptive := ""
	if j.req.StratifyAdaptive {
		adaptive = fault.AdaptiveHashFor(mod, fault.AdaptiveConfig{})
	}
	return resultKey{
		Kind:       resultKeyKind,
		ModuleHash: hashutil.Hex(hashutil.Module(mod)),
		Model:      fault.ModelVersion,
		Seed:       j.req.Seed,
		N:          j.req.N,
		Prune:      prune,
		Stratify:   stratify,
		Adaptive:   adaptive,
	}, true
}

// lookupResult consults the result cache for j. A hit returns a copy
// of the cached result stamped with j's identity and Cached=true.
// Anything suspicious about the stored payload — wrong trial count,
// missing trials, errored trials — is treated as a miss, mirroring the
// store's own torn-entry policy.
func (s *Server) lookupResult(j *Job) (*Result, bool) {
	key, ok := s.resultCacheKey(j)
	if !ok {
		return nil, false
	}
	var payload Result
	if !s.resultCache.Get(key, &payload) {
		return nil, false
	}
	// A stratified (or adaptive) result legitimately records fewer trials
	// than the N drawn slots — only the executed subset — so its
	// completeness check is against its own executed count; the key's
	// stratification/adaptive hash guarantees that count is the right one
	// for this submission.
	wantTrials := j.req.N
	if payload.Stratified {
		wantTrials = payload.ExecutedN
	}
	if payload.N != j.req.N || payload.Missing != 0 ||
		payload.Stratified != (j.req.Stratify || j.req.StratifyAdaptive) ||
		payload.Adaptive != j.req.StratifyAdaptive || len(payload.Trials) != wantTrials {
		return nil, false
	}
	for i := range payload.Trials {
		if payload.Trials[i].Outcome == fault.Errored.String() {
			return nil, false
		}
	}
	res := payload
	res.ID = j.ID
	res.State = string(JobDone)
	res.Cached = true
	return &res, true
}

// storeResult persists a finished job's result when — and only when —
// it is clean: done, complete, no errored trials.
// The payload is stripped of job identity before storage.
func (s *Server) storeResult(j *Job, state JobState, res *Result) {
	if s.resultCache == nil || res == nil || state != JobDone {
		return
	}
	if res.Missing != 0 || res.Counts[fault.Errored.String()] != 0 {
		return
	}
	key, ok := s.resultCacheKey(j)
	if !ok {
		return
	}
	payload := *res
	payload.ID, payload.State, payload.Cached = "", "", false
	if err := s.resultCache.Put(key, payload); err != nil {
		fmt.Fprintf(os.Stderr, "server: result cache write for job %s: %v\n", j.ID, err)
	}
}
