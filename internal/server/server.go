// Package server implements the campaign-as-a-service layer: an HTTP
// fault-injection server that accepts IR (or built-in benchmark)
// submissions, queues them as durable jobs, runs each job as one
// checkpointed fault.Campaign, and streams progress and results as
// JSONL.
//
// The architectural contract, pinned down by the differential tests, is
// that the service layer is *transparent*: a campaign run through the
// server — checkpointed, drained and resumed across a restart —
// produces per-trial results bit-identical to a direct fault.Injector
// run with the same seed. A job's shards only multiply its trial
// workers, and worker count never feeds sampling. The job's one log
// both yields the final result (fault.Injector.FromCheckpoint on the
// injector that ran the campaign) and re-seeds a resumed run. With
// Config.ResultCacheDir set, a clean job's log is also copied into the
// result cache, and a later job of the same campaign replays that copy
// instead of running (resultcache.go) — one stored form of a result.
//
// Durability model: each job owns a spool directory holding job.json
// (immutable submission), state.json (atomic lifecycle rewrites),
// trials.jsonl (the campaign's checkpoint log) and result.json. A server
// restarted over the same spool serves terminal jobs' results and
// re-queues interrupted jobs, which resume from their logs. On SIGTERM
// the server drains: admission stops (503 + Retry-After), running
// campaigns are cancelled (their logs already hold every completed
// trial), jobs re-queue to disk, and the process exits 143.
// DESIGN.md §5g covers the full choreography and §5h the result cache.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"trident/internal/fault"
	"trident/internal/telemetry"
)

// Config parameterizes a Server. The zero value of most fields selects
// a sensible default (see New).
type Config struct {
	// Spool is the durable job directory (required).
	Spool string
	// MaxConcurrentJobs bounds jobs running at once (default 2).
	MaxConcurrentJobs int
	// MaxQueueDepth bounds jobs waiting for a slot (default 64); past
	// it, submissions get 429.
	MaxQueueDepth int
	// DefaultShards is the shard count for jobs that don't choose one
	// (default 4); a job runs Shards × Workers trials at once.
	DefaultShards int
	// WorkerMode names how campaigns run. Every campaign runs in the
	// server process, so the only accepted values are "" and "inproc";
	// New rejects anything else.
	WorkerMode string
	// ChaosTrialDelay slows every trial by the given duration — crash
	// drills use it to land kills mid-campaign. Zero in production.
	ChaosTrialDelay time.Duration
	// ResultCacheDir, when set, roots a whole-job result cache shared by
	// every job (and, living on disk, by every restart): a submission
	// whose checkpoint header and fault model match a previously
	// completed clean job's is answered by replaying that job's log
	// without running a single trial. Empty disables caching.
	ResultCacheDir string
	// Limits bounds what submissions may ask for.
	Limits Limits
	// Metrics and Trace receive server telemetry (both optional).
	Metrics *telemetry.Registry
	Trace   *telemetry.Trace
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrentJobs <= 0 {
		c.MaxConcurrentJobs = 2
	}
	if c.MaxQueueDepth <= 0 {
		c.MaxQueueDepth = 64
	}
	if c.DefaultShards <= 0 {
		c.DefaultShards = 4
	}
	c.Limits = c.Limits.withDefaults()
	return c
}

// Server is the campaign service: queue, scheduler, job runner and
// HTTP surface.
type Server struct {
	cfg    Config
	limits Limits
	met    *serverMetrics
	q      *queue
	// cacheDir holds the result cache's entries (resultcache.go); ""
	// when the cache is off.
	cacheDir string

	runCtx    context.Context
	runCancel context.CancelFunc
	wg        sync.WaitGroup
	draining  atomic.Bool
	started   atomic.Bool
}

// New builds a Server over the spool directory, recovering every job
// already on disk: terminal jobs serve their persisted results,
// interrupted jobs re-enter the queue and will resume from their logs
// once Start runs.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Spool == "" {
		return nil, fmt.Errorf("server: Config.Spool is required")
	}
	if cfg.WorkerMode != "" && cfg.WorkerMode != "inproc" {
		return nil, fmt.Errorf("server: unknown worker mode %q: every campaign runs in-process (use \"inproc\" or leave it empty)", cfg.WorkerMode)
	}
	if err := os.MkdirAll(filepath.Join(cfg.Spool, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("server: spool: %w", err)
	}
	s := &Server{
		cfg:    cfg,
		limits: cfg.Limits,
		met:    newServerMetrics(cfg.Metrics),
		q:      newQueue(cfg.MaxQueueDepth),
	}
	if cfg.ResultCacheDir != "" {
		s.cacheDir = filepath.Join(cfg.ResultCacheDir, filepath.FromSlash(fault.ModelVersion))
		if err := os.MkdirAll(s.cacheDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: result cache: %w", err)
		}
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover reloads jobs from the spool, re-queueing interrupted ones.
func (s *Server) recover() error {
	jobsDir := filepath.Join(s.cfg.Spool, "jobs")
	entries, err := os.ReadDir(jobsDir)
	if err != nil {
		return fmt.Errorf("server: spool: %w", err)
	}
	// Deterministic re-queue order: job IDs sort by admission (they
	// embed a monotonic counter only within a process, so lexical order
	// is the best cross-restart approximation).
	sort.Slice(entries, func(i, k int) bool { return entries[i].Name() < entries[k].Name() })
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(jobsDir, e.Name())
		j, resume, err := loadJob(dir, s.limits)
		if err != nil {
			// A torn job dir (crash mid-admission) must not stop the
			// server from coming back up; skip it with a warning.
			fmt.Fprintf(os.Stderr, "server: skipping unreadable job dir %s: %v\n", dir, err)
			continue
		}
		if !s.q.add(j, resume) {
			j.setState(JobFailed, "queue full at recovery")
			s.q.add(j, false)
			continue
		}
		if resume {
			s.met.resumedJob()
		}
	}
	s.met.queueDepth(s.q.depth())
	return nil
}

// Start launches the scheduler. It is idempotent; the second and later
// calls are no-ops.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.schedule()
}

// schedule pops pending jobs as slots free up and runs each one.
func (s *Server) schedule() {
	defer s.wg.Done()
	sem := make(chan struct{}, s.cfg.MaxConcurrentJobs)
	for {
		j := s.q.pop()
		s.met.queueDepth(s.q.depth())
		if j == nil {
			select {
			case <-s.runCtx.Done():
				return
			case <-s.q.wake:
				continue
			}
		}
		select {
		case <-s.runCtx.Done():
			// Drain while waiting for a slot: the job stays queued on
			// disk and resumes after restart.
			return
		case sem <- struct{}{}:
		}
		s.wg.Add(1)
		go func(j *Job) {
			defer s.wg.Done()
			defer func() { <-sem }()
			s.runJob(s.runCtx, j)
		}(j)
	}
}

// Drain gracefully stops the server: admission flips to 503, running
// jobs are cancelled (their logs hold all completed trials) and
// re-queued to disk. It returns once every job has unwound or ctx
// expires.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	span := s.cfg.Trace.Start("drain", nil)
	if s.runCancel != nil {
		s.runCancel()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		span.EndWith(telemetry.Attrs{"clean": true})
		return nil
	case <-ctx.Done():
		span.EndWith(telemetry.Attrs{"clean": false})
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool { return s.draining.Load() }

// newJobID returns a random, sortable-enough job identifier.
func newJobID() (string, error) {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: job id: %w", err)
	}
	return "job-" + hex.EncodeToString(b[:]), nil
}

// Submit validates and admits one submission, returning the durable
// job. It is the programmatic core of POST /jobs.
func (s *Server) Submit(req *SubmitRequest) (*Job, error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	if err := req.Validate(s.limits); err != nil {
		return nil, err
	}
	// Resolve defaults at admission so the persisted submission is
	// self-contained: a restarted server must not have to re-derive
	// them from its own (possibly different) configuration.
	if req.Shards == 0 {
		req.Shards = s.cfg.DefaultShards
		if req.Shards > s.limits.MaxShards {
			req.Shards = s.limits.MaxShards
		}
	}
	id, err := newJobID()
	if err != nil {
		return nil, err
	}
	j := newJob(id, filepath.Join(s.cfg.Spool, "jobs", id), req)
	if err := j.save(); err != nil {
		return nil, err
	}
	if !s.q.add(j, true) {
		os.RemoveAll(j.dir)
		return nil, errQueueFull
	}
	s.met.queueDepth(s.q.depth())
	return j, nil
}

var (
	errDraining  = errors.New("server: draining, not admitting jobs")
	errQueueFull = errors.New("server: job queue full")
)

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) httpError(w http.ResponseWriter, code int, err error) {
	s.met.request(true)
	var re *RequestError
	if errors.As(err, &re) {
		writeJSON(w, code, re)
		return
	}
	writeJSON(w, code, &RequestError{Msg: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeSubmit(r.Body, int64(s.limits.MaxIRBytes)+1<<16)
	if err != nil {
		s.met.submit(false)
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.Submit(req)
	switch {
	case errors.Is(err, errDraining):
		s.met.submit(false)
		w.Header().Set("Retry-After", "30")
		s.httpError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, errQueueFull):
		s.met.submit(false)
		w.Header().Set("Retry-After", "10")
		s.httpError(w, http.StatusTooManyRequests, err)
		return
	case err != nil:
		s.met.submit(false)
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	s.met.submit(true)
	s.met.request(false)
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: j.ID, State: string(j.State())})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.q.list()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	s.met.request(false)
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	j := s.q.get(r.PathValue("id"))
	if j == nil {
		s.httpError(w, http.StatusNotFound, fmt.Errorf("server: no such job %q", r.PathValue("id")))
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	s.met.request(false)
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	res := j.Result()
	if res == nil {
		s.httpError(w, http.StatusConflict, fmt.Errorf("server: job %s has no result yet (state %s)", j.ID, j.State()))
		return
	}
	s.met.request(false)
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	if wasQueued := j.requestCancel(); wasQueued {
		// Never started: finalize directly, there is no runner to unwind.
		j.setState(JobCancelled, "cancelled by client")
		s.met.queueDepth(s.q.depth())
	}
	s.met.request(false)
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.met.request(false)
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.draining.Load(),
		"queued":   s.q.depth(),
	})
}

// handleEvents streams the job's lifecycle as JSONL: a state event, a
// progress event per change (coalesced under load), and a final done
// event. The stream ends when the job reaches a terminal state or the
// client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	s.met.request(false)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	_ = enc.Encode(Event{Type: "state", State: string(j.State())})
	if flusher != nil {
		flusher.Flush()
	}
	for {
		// Grab the broadcast channel BEFORE snapshotting: an update
		// landing between snapshot and wait then wakes us immediately
		// instead of being lost.
		ch := j.watch()
		ev := j.progressEvent()
		if err := enc.Encode(ev); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if ev.Type == "done" {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ch:
		}
	}
}
