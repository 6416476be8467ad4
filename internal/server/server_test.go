package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"trident/internal/fault"
	"trident/internal/telemetry"
)

// httpServer wraps a started Server in an httptest listener.
func httpServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJob(t *testing.T, url string, req *SubmitRequest) SubmitResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var re RequestError
		_ = json.NewDecoder(resp.Body).Decode(&re)
		t.Fatalf("POST /jobs = %d (%v)", resp.StatusCode, &re)
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.ID == "" || sr.State != string(JobQueued) {
		t.Fatalf("submit response = %+v", sr)
	}
	return sr
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// streamEvents consumes the job's JSONL event stream until the done
// event, returning every event seen.
func streamEvents(t *testing.T, url, id string) []Event {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
		if ev.Type == "done" {
			return evs
		}
	}
	t.Fatalf("event stream ended without done event (%d events)", len(evs))
	return nil
}

// TestSubmitRunResult is the front-door happy path: submit over HTTP,
// watch the event stream to completion, fetch the result, and require
// it bit-identical to a direct Injector run.
func TestSubmitRunResult(t *testing.T) {
	s := newSupervisedServer(t, nil)
	s.Start()
	ts := httpServer(t, s)

	req := &SubmitRequest{Program: "pathfinder", N: 60, Seed: 42, Shards: 3}
	sr := postJob(t, ts.URL, req)

	evs := streamEvents(t, ts.URL, sr.ID)
	last := evs[len(evs)-1]
	if last.State != string(JobDone) {
		t.Fatalf("final event state = %q (%s), want done", last.State, last.Error)
	}
	if last.Done != req.N || last.Total != req.N {
		t.Fatalf("final progress %d/%d, want %d/%d", last.Done, last.Total, req.N, req.N)
	}

	var res Result
	if code := getJSON(t, ts.URL+"/jobs/"+sr.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("GET result = %d", code)
	}
	if res.State != string(JobDone) || res.Missing != 0 {
		t.Fatalf("result state=%s missing=%d", res.State, res.Missing)
	}
	diffTrials(t, res.Trials, directTrials(t, req), "server campaign")

	// Status and list surfaces agree.
	var st JobStatus
	if code := getJSON(t, ts.URL+"/jobs/"+sr.ID, &st); code != http.StatusOK || st.State != string(JobDone) {
		t.Fatalf("GET status = %d, state %s", code, st.State)
	}
	var list []JobStatus
	if code := getJSON(t, ts.URL+"/jobs", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("GET /jobs = %d, %d jobs", code, len(list))
	}
}

// TestDrainRequeuesAndRestartResumes is the graceful-drain contract:
// SIGTERM-equivalent drain mid-campaign re-queues the job on disk, a
// new server over the same spool resumes it from its log,
// and the final result is still bit-identical to a clean run.
func TestDrainRequeuesAndRestartResumes(t *testing.T) {
	spool := t.TempDir()
	s1, err := New(Config{
		Spool:             spool,
		ChaosTrialDelay:   5 * time.Millisecond, // slow trials so the drain lands mid-campaign
		MaxConcurrentJobs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	ts1 := httpServer(t, s1)

	req := &SubmitRequest{Program: "pathfinder", N: 240, Seed: 1234, Shards: 3}
	sr := postJob(t, ts1.URL, req)
	j1 := s1.q.get(sr.ID)

	// Wait until the campaign has made real progress.
	deadline := time.After(30 * time.Second)
	for j1.status().Done < 10 {
		select {
		case <-j1.watch():
		case <-deadline:
			t.Fatalf("no progress before drain (done=%d)", j1.status().Done)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !s1.Draining() {
		t.Fatal("server not draining after Drain")
	}
	// Post-drain: admission refuses with 503 + Retry-After.
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts1.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("submit while draining = %d (Retry-After %q)", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if st := j1.State(); st != JobQueued {
		t.Fatalf("job state after drain = %s, want queued", st)
	}

	// Restart: a fresh server over the same spool, without the chaos
	// delay, resumes the job and completes it.
	s2 := newSupervisedServer(t, func(c *Config) { c.Spool = spool })
	j2 := s2.q.get(sr.ID)
	if j2 == nil {
		t.Fatal("restarted server lost the job")
	}
	if st := j2.State(); st != JobQueued {
		t.Fatalf("recovered job state = %s, want queued", st)
	}
	s2.Start()
	if st := waitTerminal(t, j2); st != JobDone {
		t.Fatalf("resumed job state = %s (%s), want done", st, j2.status().Error)
	}
	res := j2.Result()
	if res == nil || res.Missing != 0 {
		t.Fatalf("resumed result = %+v, want complete", res)
	}
	diffTrials(t, res.Trials, directTrials(t, req), "drained+resumed campaign")
}

// TestCancelJob: DELETE cancels a running job; the partial result built
// from its log is served with the gaps accounted for.
func TestCancelJob(t *testing.T) {
	s := newSupervisedServer(t, func(c *Config) {
		c.ChaosTrialDelay = 5 * time.Millisecond
	})
	s.Start()
	ts := httpServer(t, s)

	req := &SubmitRequest{Program: "pathfinder", N: 400, Seed: 5, Shards: 2}
	sr := postJob(t, ts.URL, req)
	j := s.q.get(sr.ID)
	deadline := time.After(30 * time.Second)
	for j.status().Done < 5 {
		select {
		case <-j.watch():
		case <-deadline:
			t.Fatal("no progress before cancel")
		}
	}

	httpReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+sr.ID, nil)
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	if st := waitTerminal(t, j); st != JobCancelled {
		t.Fatalf("state = %s, want cancelled", st)
	}
	res := j.Result()
	if res == nil {
		t.Fatal("cancelled job has no partial result")
	}
	if res.Missing == 0 {
		t.Error("cancelled mid-run but nothing missing")
	}
	if got := len(res.Trials) + res.Missing; got != req.N {
		t.Errorf("trials(%d) + missing(%d) != n(%d)", len(res.Trials), res.Missing, req.N)
	}
}

// TestCancelQueuedJob: cancelling a job that never got a slot finalizes
// it without running anything.
func TestCancelQueuedJob(t *testing.T) {
	s := newSupervisedServer(t, nil)
	// Scheduler NOT started: the job stays queued.
	ts := httpServer(t, s)
	sr := postJob(t, ts.URL, &SubmitRequest{Program: "nw", N: 10, Seed: 1, Shards: 2})
	httpReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+sr.ID, nil)
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != string(JobCancelled) {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	s.Start() // scheduler must skip the cancelled job without wedging
}

func TestHTTPErrors(t *testing.T) {
	s := newSupervisedServer(t, nil)
	s.Start()
	ts := httpServer(t, s)

	if code := getJSON(t, ts.URL+"/jobs/nonesuch", nil); code != http.StatusNotFound {
		t.Errorf("GET unknown job = %d", code)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"n":5}`))
	if err != nil {
		t.Fatal(err)
	}
	var re RequestError
	_ = json.NewDecoder(resp.Body).Decode(&re)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || re.Field != "program" {
		t.Errorf("bad submit = %d, field %q", resp.StatusCode, re.Field)
	}
	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz = %d %v", code, health)
	}
}

// TestQueueFullRejects: submissions past the queue cap get 429 and do
// not leave debris in the spool.
func TestQueueFullRejects(t *testing.T) {
	s := newSupervisedServer(t, func(c *Config) { c.MaxQueueDepth = 1 })
	// Scheduler not started, so the first job occupies the queue.
	ts := httpServer(t, s)
	postJob(t, ts.URL, &SubmitRequest{Program: "nw", N: 10, Shards: 2})
	body, _ := json.Marshal(&SubmitRequest{Program: "nw", N: 10, Shards: 2})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over cap = %d, want 429", resp.StatusCode)
	}
	entries, err := os.ReadDir(fmt.Sprintf("%s/jobs", s.cfg.Spool))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("spool has %d job dirs after rejection, want 1", len(entries))
	}
}

// TestShardTelemetryReachesServerRegistry: a sharded job's campaign runs
// in the server process, so its fi.* counters land in Config.Metrics
// and reconcile exactly with the job's result; a resubmission answered
// from the result cache runs no campaign and adds nothing.
func TestShardTelemetryReachesServerRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newSupervisedServer(t, func(c *Config) {
		c.Metrics = reg
		c.ResultCacheDir = t.TempDir()
	})
	s.Start()
	req := &SubmitRequest{Program: "pathfinder", N: 90, Seed: 31, Shards: 3}
	res := submitAndWait(t, s, req, JobDone).Result()
	if res.Cached {
		t.Fatal("first job was served from the cache")
	}
	snapshot := func() map[string]uint64 {
		out := map[string]uint64{"fi.trials.total": reg.Counter("fi.trials.total").Load()}
		for _, o := range fault.AllOutcomes {
			name := "fi.outcome." + o.String()
			out[name] = reg.Counter(name).Load()
		}
		return out
	}
	first := snapshot()
	if got := first["fi.trials.total"]; got != uint64(req.N) {
		t.Errorf("fi.trials.total = %d, want %d", got, req.N)
	}
	for _, o := range fault.AllOutcomes {
		if got, want := first["fi.outcome."+o.String()], uint64(res.Counts[o.String()]); got != want {
			t.Errorf("fi.outcome.%s = %d, result counts %d", o, got, want)
		}
	}

	again := submitAndWait(t, s, req, JobDone).Result()
	if !again.Cached {
		t.Fatal("identical resubmission missed the result cache")
	}
	for name, v := range snapshot() {
		if v != first[name] {
			t.Errorf("%s moved from %d to %d on a cached job", name, first[name], v)
		}
	}
}

// TestNewRejectsUnknownWorkerMode: campaigns only run in-process; any other
// worker mode is a configuration error, not a silent fallback.
func TestNewRejectsUnknownWorkerMode(t *testing.T) {
	for _, mode := range []string{"", "inproc"} {
		if _, err := New(Config{Spool: t.TempDir(), WorkerMode: mode}); err != nil {
			t.Errorf("WorkerMode %q: %v", mode, err)
		}
	}
	if _, err := New(Config{Spool: t.TempDir(), WorkerMode: "exec"}); err == nil || !strings.Contains(err.Error(), "exec") {
		t.Errorf("WorkerMode exec: err = %v, want an error naming it", err)
	}
}
