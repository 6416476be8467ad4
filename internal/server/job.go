// This file holds the server's job model and its spool-directory
// persistence. A job is durable from the moment it is accepted: the
// immutable submission lives in job.json, the mutable lifecycle state
// in state.json (atomically rewritten on every transition), and the
// campaign's checkpoint log (trials.jsonl) and final result alongside
// them. A server restarted over the same spool reconstructs every job —
// terminal jobs keep serving their results, interrupted ones go back on
// the queue and resume from their log.

package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"trident/internal/fault"
)

// JobState is a job's lifecycle state.
type JobState string

// The job lifecycle: queued → running → one of the four terminal
// states. A drain moves running back to queued (persisted, so a
// restarted server resumes the job); partial marks a job degraded by a
// campaign error or a wall-clock budget — its result is still served,
// with the gaps accounted for.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobPartial   JobState = "partial"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	switch s {
	case JobDone, JobPartial, JobFailed, JobCancelled:
		return true
	}
	return false
}

// Job is one campaign submission and everything the server knows about
// it. All mutable fields are guarded by mu; watchers observe changes
// through the broadcast channel, which is closed and replaced on every
// update (a broadcast condition variable that composes with select).
type Job struct {
	// ID is the durable job identifier; dir its spool directory.
	ID  string
	dir string
	// req is the validated, default-resolved submission (immutable).
	req *SubmitRequest

	mu        sync.Mutex
	state     JobState
	errMsg    string
	progress  fault.Progress
	result    *Result
	cancel    func() // cancels the running job's context (nil until running)
	cancelled bool   // client asked for cancellation
	broadcast chan struct{}
	started   time.Time
}

// jobMeta is job.json: the immutable half of a job's persistence.
type jobMeta struct {
	ID  string         `json:"id"`
	Req *SubmitRequest `json:"req"`
}

// jobStateFile is state.json: the mutable half, atomically rewritten.
type jobStateFile struct {
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
}

func newJob(id, dir string, req *SubmitRequest) *Job {
	return &Job{
		ID:        id,
		dir:       dir,
		req:       req,
		state:     JobQueued,
		broadcast: make(chan struct{}),
	}
}

// save writes both halves of the job's persistence; used at admission.
func (j *Job) save() error {
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return fmt.Errorf("server: job dir: %w", err)
	}
	meta := jobMeta{ID: j.ID, Req: j.req}
	if err := writeJSONFile(filepath.Join(j.dir, "job.json"), meta); err != nil {
		return err
	}
	return j.persistState()
}

// persistState atomically rewrites state.json with the current state.
// Callers must hold mu (or own the job exclusively).
func (j *Job) persistState() error {
	sf := jobStateFile{State: j.state, Error: j.errMsg}
	return writeJSONFile(filepath.Join(j.dir, "state.json"), sf)
}

// writeJSONFile writes v as JSON via tmp+rename so a crash mid-write
// never leaves a torn file where a whole one used to be.
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("server: encode %s: %w", filepath.Base(path), err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("server: write %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: write %s: %w", filepath.Base(path), err)
	}
	return nil
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("server: decode %s: %w", filepath.Base(path), err)
	}
	return nil
}

// loadJob reconstructs a job from its spool directory. Jobs found
// queued or running were interrupted — they re-enter the queue and
// resume from their log; terminal jobs keep serving their
// persisted state and result. The submission is re-validated against
// lim, the limits of the server loading it: a spool written under
// looser limits (or edited by hand) must not re-queue a job this server
// would refuse at admission.
func loadJob(dir string, lim Limits) (*Job, bool, error) {
	var meta jobMeta
	if err := readJSONFile(filepath.Join(dir, "job.json"), &meta); err != nil {
		return nil, false, err
	}
	if meta.ID == "" || meta.Req == nil || meta.Req.Shards < 1 {
		return nil, false, fmt.Errorf("server: %s: malformed job.json", dir)
	}
	if err := meta.Req.Validate(lim); err != nil {
		return nil, false, fmt.Errorf("server: %s: job.json: %w", dir, err)
	}
	j := newJob(meta.ID, dir, meta.Req)
	var sf jobStateFile
	if err := readJSONFile(filepath.Join(dir, "state.json"), &sf); err != nil {
		// job.json exists but state.json is missing or torn: the server
		// crashed between the two writes at admission. The submission is
		// intact, so treat the job as queued.
		sf = jobStateFile{State: JobQueued}
	}
	j.state = sf.State
	j.errMsg = sf.Error
	resume := false
	switch sf.State {
	case JobQueued, JobRunning:
		j.state = JobQueued
		j.errMsg = ""
		resume = true
	default:
		var res Result
		if err := readJSONFile(filepath.Join(dir, "result.json"), &res); err == nil {
			j.result = &res
		}
	}
	return j, resume, nil
}

// notify wakes every watcher. Callers must hold mu.
func (j *Job) notify() {
	close(j.broadcast)
	j.broadcast = make(chan struct{})
}

// watch returns a channel closed at the next job update.
func (j *Job) watch() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.broadcast
}

// setState transitions the job, persists the transition, and notifies
// watchers. State transitions are rare (per-trial progress does not
// pass through here), so the fsync-ish cost of the atomic rewrite is
// off the hot path.
func (j *Job) setState(s JobState, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = s
	j.errMsg = errMsg
	_ = j.persistState()
	j.notify()
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// setProgress records the campaign's latest progress and notifies
// watchers; it is the campaign's fault.Options.OnProgress.
func (j *Job) setProgress(p fault.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress = p
	j.notify()
}

// setResult installs the job's final result (before the terminal
// setState, so watchers woken by the transition see it).
func (j *Job) setResult(res *Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.result = res
	_ = writeJSONFile(filepath.Join(j.dir, "result.json"), res)
}

// Result returns the job's result, or nil if none yet.
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// requestCancel marks the job client-cancelled and cancels its running
// context if any. It reports whether the job was still queued (the
// caller then finalizes it directly — there is no runner to unwind).
func (j *Job) requestCancel() (wasQueued bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.cancelled = true
	if j.cancel != nil {
		j.cancel()
		return false
	}
	return j.state == JobQueued
}

func (j *Job) clientCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled
}

// status snapshots the job for the wire.
func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:      j.ID,
		State:   string(j.state),
		Program: j.req.ModuleName(),
		N:       j.req.N,
		Seed:    j.req.Seed,
		Done:    j.progress.Done,
		Error:   j.errMsg,
	}
	for _, o := range fault.AllOutcomes {
		if c := j.progress.Counts[o]; c > 0 {
			if st.Counts == nil {
				st.Counts = make(map[string]int)
			}
			st.Counts[o.String()] = c
		}
	}
	return st
}

// progressEvent snapshots the job as a stream event.
func (j *Job) progressEvent() Event {
	st := j.status()
	typ := "progress"
	if JobState(st.State).Terminal() {
		typ = "done"
	}
	ev := Event{
		Type:   typ,
		State:  st.State,
		Done:   st.Done,
		Total:  st.N,
		Counts: st.Counts,
		Error:  st.Error,
	}
	j.mu.Lock()
	if !j.started.IsZero() {
		ev.ElapsedMS = time.Since(j.started).Milliseconds()
	}
	j.mu.Unlock()
	return ev
}
