// This file implements checkpoint/resume for fault-injection campaigns.
// A campaign is a pure function of (module, seed, n): the sampled trial
// list is re-derived deterministically, so the log only needs to persist
// completed trial outcomes keyed by their durable identity. An
// interrupted campaign replays cached trials from the log and executes
// just the remainder, reproducing the uninterrupted result bit for bit.

package fault

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"trident/internal/hashutil"
)

// warnf logs non-fatal checkpoint anomalies — torn tails skipped on
// resume, stale errored records superseded during a merge. The default
// writes one line to stderr; tests swap it to capture output. It is
// never called on the trial hot path.
var warnf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// TrialKey durably identifies one trial of a campaign across process
// restarts: instruction IDs are function-local, so the function name is
// part of the key. The campaign seed lives in the checkpoint header.
type TrialKey struct {
	Func     string
	Instr    int
	Instance uint64
	Bit      int
}

// checkpointMeta is the first line of a checkpoint log. Resume validates
// it so a log is never replayed against a different campaign.
type checkpointMeta struct {
	Version int    `json:"version"`
	Module  string `json:"module"`
	Kind    string `json:"kind"`
	Seed    uint64 `json:"seed"`
	// Space is the activation space of the golden run — a cheap integrity
	// check that the module and input are the ones the log was built for.
	Space uint64 `json:"space"`
	N     int    `json:"n"`
	// ModuleHash is the content address of the module's canonical printed
	// text (hashutil.Hex form). Older logs omit it; the check applies only
	// when both sides carry a hash, so version stays 1.
	ModuleHash string `json:"module_hash,omitempty"`
	// Prune records the bit-liveness configuration the campaign ran
	// under: "none" when pruning was off, the report's module hash
	// (hashutil.Hex) when -prune-bits was on. Resuming a pruned log
	// unpruned (or vice versa) would mix replayed pruned classifications
	// into an unpruned transcript — semantically different records in
	// one log — so a mismatch refuses the resume. Older logs omit the
	// field; the check applies only when both sides carry a value, so
	// version stays 1.
	Prune string `json:"prune,omitempty"`
	// Stratify likewise records the stratification in effect: "none", or
	// the influence + plan hash (Injector.StratifyHash). A log thinned
	// under one plan replays a different executed subset than another
	// plan expects, so mismatched resumes are refused the same way.
	Stratify string `json:"stratify,omitempty"`
}

const checkpointVersion = 1

// matches validates a log's header against the campaign about to use
// it, so a log is never replayed against a different campaign.
func (m checkpointMeta) matches(path string, want checkpointMeta) error {
	if m.Version != want.Version || m.Module != want.Module ||
		m.Kind != want.Kind || m.Seed != want.Seed || m.Space != want.Space {
		return fmt.Errorf("fault: checkpoint %s was written by a different campaign "+
			"(%s campaign, module %q seed %d space %d; want %s campaign, "+
			"module %q seed %d space %d)",
			path, m.Kind, m.Module, m.Seed, m.Space,
			want.Kind, want.Module, want.Seed, want.Space)
	}
	if m.ModuleHash != "" && want.ModuleHash != "" && m.ModuleHash != want.ModuleHash {
		return fmt.Errorf("fault: checkpoint %s was written for different module text "+
			"(module hash %s, want %s)", path, m.ModuleHash, want.ModuleHash)
	}
	if m.Prune != "" && want.Prune != "" && m.Prune != want.Prune {
		return fmt.Errorf("fault: checkpoint %s was written under different bit-liveness "+
			"pruning (prune %s, want %s): resume with the matching -prune-bits setting",
			path, m.Prune, want.Prune)
	}
	if m.Stratify != "" && want.Stratify != "" && m.Stratify != want.Stratify {
		return fmt.Errorf("fault: checkpoint %s was written under a different "+
			"stratification plan (stratify %s, want %s): resume with the matching "+
			"-stratify setting", path, m.Stratify, want.Stratify)
	}
	return nil
}

// trialRecord is one completed trial, one JSON object per line.
type trialRecord struct {
	Func     string `json:"fn"`
	Instr    int    `json:"instr"`
	Instance uint64 `json:"instance"`
	Bit      int    `json:"bit"`
	Outcome  string `json:"outcome"`
	Latency  uint64 `json:"latency,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Err      string `json:"err,omitempty"`
}

func (r trialRecord) key() TrialKey {
	return TrialKey{Func: r.Func, Instr: r.Instr, Instance: r.Instance, Bit: r.Bit}
}

// injection rebuilds the in-memory trial (and, for Errored records, its
// TrialError, with Index left for the caller to fill) from a log record
// matched to its spec.
func (r trialRecord) injection(spec trialSpec) (Injection, *TrialError) {
	outcome, _ := outcomeFromName(r.Outcome)
	tr := Injection{
		Instr:        spec.instr,
		Instance:     spec.instance,
		Bit:          spec.bit,
		Outcome:      outcome,
		CrashLatency: r.Latency,
	}
	if outcome != Errored {
		return tr, nil
	}
	return tr, &TrialError{
		Instr:    spec.instr,
		Instance: spec.instance,
		Bit:      spec.bit,
		Attempts: r.Attempts,
		Err:      errors.New(r.Err),
	}
}

// readCheckpointFile reads a checkpoint log's raw bytes with the
// package's error wrapping.
func readCheckpointFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: checkpoint: %w", err)
	}
	return data, nil
}

// Checkpoint is an append-only JSONL log of completed campaign trials.
// It is safe for concurrent use by campaign workers.
type Checkpoint struct {
	path string

	mu       sync.Mutex
	f        *os.File
	cache    map[TrialKey]trialRecord
	replayed int
	writeErr error
	warnings []string
}

// openCheckpoint creates the log at path, or loads and compacts an
// existing one. requireExisting distinguishes explicit resume (the log
// must be there) from create-or-resume.
func openCheckpoint(path string, meta checkpointMeta, requireExisting bool) (*Checkpoint, error) {
	ck := &Checkpoint{path: path, cache: make(map[TrialKey]trialRecord)}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist) || (err == nil && len(data) == 0):
		if requireExisting {
			return nil, fmt.Errorf("fault: resume: no checkpoint at %s", path)
		}
		return ck, ck.create(meta)
	case err != nil:
		return nil, fmt.Errorf("fault: checkpoint: %w", err)
	}
	if err := ck.load(data, meta); err != nil {
		return nil, err
	}
	// Compact: rewrite the log with only the header and intact records in
	// deterministic (key-sorted) shard order. This drops any truncated
	// final line left by a kill mid-write, so appends land on valid JSONL.
	if err := ck.compact(meta); err != nil {
		return nil, err
	}
	return ck, nil
}

// create writes a fresh log containing only the header.
func (ck *Checkpoint) create(meta checkpointMeta) error {
	f, err := os.OpenFile(ck.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("fault: checkpoint: %w", err)
	}
	line, err := json.Marshal(meta)
	if err != nil {
		f.Close()
		return fmt.Errorf("fault: checkpoint: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("fault: checkpoint: %w", err)
	}
	ck.f = f
	return nil
}

// load parses an existing log, validating the header against want and
// tolerating (with a logged warning) a torn tail left by a crash
// mid-append.
func (ck *Checkpoint) load(data []byte, want checkpointMeta) error {
	meta, recs, warns, err := readLog(ck.path, data)
	if err != nil {
		return err
	}
	if err := meta.matches(ck.path, want); err != nil {
		return err
	}
	ck.cache = recs
	ck.warnings = append(ck.warnings, warns...)
	for _, w := range warns {
		warnf("%s", w)
	}
	return nil
}

// readLog parses one checkpoint log into its header and record map.
//
// Robustness contract: a process killed mid-append (kill -9, power
// loss) leaves at most a truncated or garbled final line. Such a torn
// tail is skipped with a warning — losing one in-flight trial is
// harmless, it simply re-executes on resume — but a corrupt line that
// is *followed* by intact records is not crash debris and fails the
// load, because silently dropping it would under-report completed
// trials without any crash to explain it.
func readLog(path string, data []byte) (checkpointMeta, map[TrialKey]trialRecord, []string, error) {
	var meta checkpointMeta
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	if !sc.Scan() {
		return meta, nil, nil, fmt.Errorf("fault: checkpoint %s: missing header", path)
	}
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		return meta, nil, nil, fmt.Errorf("fault: checkpoint %s: bad header: %w", path, err)
	}
	recs := make(map[TrialKey]trialRecord)
	line := 1
	tornLine, tornBytes := 0, 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		var rec trialRecord
		bad := json.Unmarshal(raw, &rec) != nil
		if !bad {
			if _, ok := outcomeFromName(rec.Outcome); !ok {
				bad = true
			}
		}
		if bad {
			if tornLine == 0 {
				tornLine = line
			}
			tornBytes += len(raw)
			continue
		}
		if tornLine != 0 {
			return meta, nil, nil, fmt.Errorf(
				"fault: checkpoint %s: corrupt record at line %d followed by intact records (not a torn tail)",
				path, tornLine)
		}
		recs[rec.key()] = rec
	}
	var warns []string
	if tornLine != 0 {
		warns = append(warns, fmt.Sprintf(
			"fault: checkpoint %s: skipped torn tail at line %d (%d byte(s)) left by a crash mid-append; the affected trial(s) will re-execute",
			path, tornLine, tornBytes))
	}
	if err := sc.Err(); err != nil {
		// An overlong line the scanner refused to buffer is tail garbage
		// of a kind no writer of ours produces; treat it like a torn tail
		// rather than failing the whole resume.
		warns = append(warns, fmt.Sprintf(
			"fault: checkpoint %s: skipped unreadable tail after line %d (%v)", path, line, err))
	}
	return meta, recs, warns, nil
}

// Warnings returns the non-fatal anomalies observed while loading the
// log (torn tails skipped), in occurrence order.
func (ck *Checkpoint) Warnings() []string {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return append([]string(nil), ck.warnings...)
}

// sortRecords orders records by trial key — the deterministic on-disk
// order used by compaction and merge, independent of worker
// interleaving.
func sortRecords(recs []trialRecord) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.Instr != b.Instr {
			return a.Instr < b.Instr
		}
		if a.Instance != b.Instance {
			return a.Instance < b.Instance
		}
		return a.Bit < b.Bit
	})
}

// writeLog atomically writes a complete log — header plus records in
// key-sorted order — at path via a temp file and rename, so a crash
// mid-write never destroys an existing log.
func writeLog(path string, meta checkpointMeta, cache map[TrialKey]trialRecord) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("fault: checkpoint: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(meta); err != nil {
		f.Close()
		return fmt.Errorf("fault: checkpoint: %w", err)
	}
	recs := make([]trialRecord, 0, len(cache))
	for _, rec := range cache {
		recs = append(recs, rec)
	}
	sortRecords(recs)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("fault: checkpoint: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("fault: checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("fault: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("fault: checkpoint: %w", err)
	}
	return nil
}

// compact atomically rewrites the log as header + cached records in
// key-sorted order, then reopens it for appending.
func (ck *Checkpoint) compact(meta checkpointMeta) error {
	if err := writeLog(ck.path, meta, ck.cache); err != nil {
		return err
	}
	out, err := os.OpenFile(ck.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("fault: checkpoint: %w", err)
	}
	ck.f = out
	return nil
}

// replay returns the cached result for spec, if the log has one. The
// cache is read under the lock: the launcher replays specs while workers
// are still recording fresh completions.
//
// Errored records are deliberately NOT replayed: an Errored outcome means
// the engine failed (after exhausting in-session retries), not that the
// program under test was observed. Re-attempting it on resume gives
// transient failures (timeouts, resource pressure) a fresh chance without
// ever counting the trial twice — the fresh result overwrites the stale
// record in both the cache and the log, so CampaignResult.Errs carries at
// most one entry per trial no matter how many sessions retried it.
func (ck *Checkpoint) replay(spec trialSpec) (Injection, *TrialError, bool) {
	ck.mu.Lock()
	rec, ok := ck.cache[spec.key()]
	if ok {
		if o, _ := outcomeFromName(rec.Outcome); o == Errored {
			ok = false
		} else {
			ck.replayed++
		}
	}
	ck.mu.Unlock()
	if !ok {
		return Injection{}, nil, false
	}
	outcome, _ := outcomeFromName(rec.Outcome)
	return Injection{
		Instr:        spec.instr,
		Instance:     spec.instance,
		Bit:          spec.bit,
		Outcome:      outcome,
		CrashLatency: rec.Latency,
	}, nil, true
}

// record appends one completed trial. Write failures do not abort the
// campaign (the in-memory result is still valid); the first one is
// surfaced by Close.
func (ck *Checkpoint) record(spec trialSpec, tr Injection, terr *TrialError) {
	key := spec.key()
	rec := trialRecord{
		Func:     key.Func,
		Instr:    key.Instr,
		Instance: key.Instance,
		Bit:      key.Bit,
		Outcome:  tr.Outcome.String(),
		Latency:  tr.CrashLatency,
	}
	if terr != nil {
		rec.Attempts = terr.Attempts
		rec.Err = terr.Err.Error()
	}
	line, err := json.Marshal(rec)
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if err != nil {
		if ck.writeErr == nil {
			ck.writeErr = err
		}
		return
	}
	// Two workers can run duplicate draws of one trial concurrently, both
	// missing replay; the second identical result is already logged.
	if old, ok := ck.cache[key]; ok && old == rec {
		return
	}
	ck.cache[key] = rec
	if _, err := ck.f.Write(append(line, '\n')); err != nil && ck.writeErr == nil {
		ck.writeErr = err
	}
}

// Replayed returns the number of trials served from the log instead of
// re-executed.
func (ck *Checkpoint) Replayed() int {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.replayed
}

// Close flushes and closes the log, returning the first write failure.
func (ck *Checkpoint) Close() error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	var err error
	if ck.f != nil {
		err = ck.f.Close()
		ck.f = nil
	}
	if ck.writeErr != nil {
		return fmt.Errorf("fault: checkpoint write: %w", ck.writeErr)
	}
	if err != nil {
		return fmt.Errorf("fault: checkpoint close: %w", err)
	}
	return nil
}

// metaRandom describes a CampaignRandom run for checkpoint validation.
// Prune and Stratify always carry an explicit value ("none" when off),
// so two fresh logs that differ in either setting can never validate
// against each other; only pre-existing logs from older versions (empty
// fields) are grandfathered in.
func (inj *Injector) metaRandom(n int) checkpointMeta {
	meta := checkpointMeta{
		Version:    checkpointVersion,
		Module:     inj.module.Name,
		Kind:       "random",
		Seed:       inj.opts.Seed,
		Space:      inj.total,
		N:          n,
		ModuleHash: hashutil.Hex(inj.moduleHash),
		Prune:      "none",
		Stratify:   "none",
	}
	if h := inj.pruneHash(); h != "" {
		meta.Prune = h
	}
	// Stratify stays "none" here: a plain random campaign's trial list
	// and records do not depend on Options.Stratify. metaStratified
	// overrides it (and Kind) for stratified runs.
	return meta
}

// CampaignRandomCheckpoint is CampaignRandom persisted to a JSONL log at
// path: every completed trial is appended as it finishes, and an existing
// log is resumed — cached trials replay instantly, only the remainder
// executes. Cancelling ctx still flushes completed trials to the log, so
// a killed campaign loses at most its in-flight trials.
func (inj *Injector) CampaignRandomCheckpoint(ctx context.Context, n int, path string) (*CampaignResult, error) {
	return inj.checkpointedRandom(ctx, n, path, false)
}

// ResumeCampaign continues an interrupted CampaignRandomCheckpoint run
// from its log. Unlike CampaignRandomCheckpoint it refuses to start from
// scratch: a missing log is an error, guarding against typoed paths
// silently re-running a multi-hour campaign.
func (inj *Injector) ResumeCampaign(ctx context.Context, n int, path string) (*CampaignResult, error) {
	return inj.checkpointedRandom(ctx, n, path, true)
}

func (inj *Injector) checkpointedRandom(ctx context.Context, n int, path string, requireExisting bool) (*CampaignResult, error) {
	ck, err := openCheckpoint(path, inj.metaRandom(n), requireExisting)
	if err != nil {
		return nil, err
	}
	res, runErr := inj.runTrials(ctx, inj.sampleRandom(n), ck)
	if cerr := ck.Close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	return res, runErr
}
