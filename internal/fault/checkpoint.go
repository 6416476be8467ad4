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
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
)

// warnf logs non-fatal checkpoint anomalies — torn tails skipped when a
// log loads. The default writes one line to stderr; tests swap it to
// capture output. It is never called on the trial hot path.
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

// TrialRecord is one completed trial: a line of a checkpoint log, and
// (as server.TrialRecord) a per-trial record on the campaign server's
// wire. Both are built by NewTrialRecord.
type TrialRecord struct {
	Func     string `json:"fn"`
	Instr    int    `json:"instr"`
	Instance uint64 `json:"instance"`
	Bit      int    `json:"bit"`
	Outcome  string `json:"outcome"`
	Latency  uint64 `json:"latency,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Err      string `json:"err,omitempty"`
}

// NewTrialRecord records a classified trial; terr, non-nil for an Errored
// trial, contributes its attempt count and error text.
func NewTrialRecord(tr Injection, terr *TrialError) TrialRecord {
	rec := TrialRecord{
		Func:     tr.Instr.Block.Fn.Name,
		Instr:    tr.Instr.ID,
		Instance: tr.Instance,
		Bit:      tr.Bit,
		Outcome:  tr.Outcome.String(),
		Latency:  tr.CrashLatency,
	}
	if terr != nil {
		rec.Attempts = terr.Attempts
		rec.Err = terr.Err.Error()
	}
	return rec
}

func (r TrialRecord) key() TrialKey {
	return TrialKey{Func: r.Func, Instr: r.Instr, Instance: r.Instance, Bit: r.Bit}
}

// injection rebuilds the in-memory trial (and, for Errored records, its
// TrialError, with Index left for the caller to fill) from a log record
// matched to its spec.
func (r TrialRecord) injection(spec trialSpec) (Injection, *TrialError) {
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

// CheckpointError reports a checkpoint log that cannot be decoded,
// positioned at the offending line: 1 for a missing or malformed header,
// otherwise the corrupt record's own line.
type CheckpointError struct {
	Path string
	Line int
	Msg  string
}

// Error implements error.
func (e *CheckpointError) Error() string {
	return fmt.Sprintf("fault: checkpoint %s: line %d: %s", e.Path, e.Line, e.Msg)
}

// Checkpoint is an append-only JSONL log of completed campaign trials.
// It is safe for concurrent use by campaign workers.
type Checkpoint struct {
	path string

	mu       sync.Mutex
	f        *os.File
	cache    map[TrialKey]TrialRecord
	writeErr error
	warnings []string
}

// openCheckpoint creates the log at path, or loads and compacts an
// existing one. requireExisting distinguishes explicit resume (the log
// must be there) from create-or-resume.
func openCheckpoint(path string, meta checkpointMeta, requireExisting bool) (*Checkpoint, error) {
	ck := &Checkpoint{path: path, cache: make(map[TrialKey]TrialRecord)}
	recs, warns, err := loadLogFor(path, meta)
	switch {
	case errors.Is(err, os.ErrNotExist) || errors.Is(err, errEmptyLog):
		if requireExisting {
			return nil, fmt.Errorf("fault: resume: no checkpoint at %s", path)
		}
		return ck, ck.create(meta)
	case err != nil:
		return nil, err
	}
	ck.cache = recs
	ck.warnings = warns
	// Compact: rewrite the log with only the header and intact records in
	// deterministic (key-sorted) order. This drops any truncated
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

// errEmptyLog marks a zero-byte log: a file created but never written,
// which resume treats like a missing one.
var errEmptyLog = errors.New("empty checkpoint log")

// loadLog reads and parses the checkpoint log at path — the one place a
// log is read from disk — logging any torn-tail warnings.
func loadLog(path string) (checkpointMeta, map[TrialKey]TrialRecord, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return checkpointMeta{}, nil, nil, fmt.Errorf("fault: checkpoint: %w", err)
	}
	if len(data) == 0 {
		return checkpointMeta{}, nil, nil, fmt.Errorf("fault: checkpoint %s: %w", path, errEmptyLog)
	}
	meta, recs, warns, err := readLog(path, data)
	for _, w := range warns {
		warnf("%s", w)
	}
	return meta, recs, warns, err
}

// loadLogFor loads the log at path and validates its header against
// want, so a log is never replayed against a different campaign.
func loadLogFor(path string, want checkpointMeta) (map[TrialKey]TrialRecord, []string, error) {
	meta, recs, warns, err := loadLog(path)
	if err != nil {
		return nil, nil, err
	}
	if err := meta.matches(path, want); err != nil {
		return nil, nil, err
	}
	return recs, warns, nil
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
func readLog(path string, data []byte) (checkpointMeta, map[TrialKey]TrialRecord, []string, error) {
	var meta checkpointMeta
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	if !sc.Scan() {
		return meta, nil, nil, &CheckpointError{Path: path, Line: 1, Msg: "missing header"}
	}
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		return meta, nil, nil, &CheckpointError{Path: path, Line: 1, Msg: "bad header: " + err.Error()}
	}
	recs := make(map[TrialKey]TrialRecord)
	line := 1
	tornLine, tornBytes := 0, 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		var rec TrialRecord
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
			return meta, nil, nil, &CheckpointError{Path: path, Line: tornLine,
				Msg: "corrupt record followed by intact records (not a torn tail)"}
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
// order used by compaction, independent of worker interleaving.
func sortRecords(recs []TrialRecord) {
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
func writeLog(path string, meta checkpointMeta, cache map[TrialKey]TrialRecord) error {
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
	recs := make([]TrialRecord, 0, len(cache))
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
	ck.mu.Unlock()
	if !ok {
		return Injection{}, nil, false
	}
	outcome, _ := outcomeFromName(rec.Outcome)
	if outcome == Errored {
		return Injection{}, nil, false
	}
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
func (ck *Checkpoint) record(tr Injection, terr *TrialError) {
	rec := NewTrialRecord(tr, terr)
	key := rec.key()
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
