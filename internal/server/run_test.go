package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"trident/internal/fault"
	"trident/internal/telemetry"
)

// newSupervisedServer builds a server over a temp spool, drained at
// test cleanup; the caller starts it.
func newSupervisedServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Spool:             t.TempDir(),
		MaxConcurrentJobs: 2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s
}

// waitTerminal blocks until the job leaves the queue and reaches a
// terminal state (or the test times out).
func waitTerminal(t *testing.T, j *Job) JobState {
	t.Helper()
	deadline := time.After(60 * time.Second)
	for {
		ch := j.watch()
		if st := j.State(); st.Terminal() {
			return st
		}
		select {
		case <-ch:
		case <-deadline:
			t.Fatalf("job %s stuck in state %s", j.ID, j.State())
		}
	}
}

// directTrials runs the same campaign through a bare full re-execution
// Injector — the reference half of every bit-identity comparison, so
// the service's snapshot-replay campaigns are checked against trials
// run from instruction 0.
func directTrials(t *testing.T, req *SubmitRequest) []TrialRecord {
	t.Helper()
	mod, err := req.BuildModule()
	if err != nil {
		t.Fatal(err)
	}
	opts := req.FaultOptions()
	opts.SnapshotInterval = -1
	inj, err := fault.New(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	if k := inj.Snapshots(); k != 0 {
		t.Fatalf("full re-execution injector holds %d snapshots", k)
	}
	res, err := inj.CampaignRandom(context.Background(), req.N)
	if err != nil {
		t.Fatal(err)
	}
	return wireTrials(res)
}

func diffTrials(t *testing.T, got, want []TrialRecord, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d trials, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: trial %d diverges:\n  got  %+v\n  want %+v", label, i, got[i], want[i])
		}
	}
}

// TestWallClockBudget: a job over its wall budget terminates partial
// with the budget named in the error, instead of running forever.
func TestWallClockBudget(t *testing.T) {
	s := newSupervisedServer(t, func(c *Config) {
		c.ChaosTrialDelay = 20 * time.Millisecond
	})
	s.Start()
	req := &SubmitRequest{Program: "pathfinder", N: 400, Seed: 3, Shards: 2, MaxWallMS: 300}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != JobPartial {
		t.Fatalf("state = %s, want partial", st)
	}
	if stErr := j.status().Error; stErr == "" {
		t.Error("partial job carries no error")
	} else if want := fmt.Sprintf("wall-clock budget (%v) exhausted", 300*time.Millisecond); stErr != want {
		t.Errorf("error = %q, want %q", stErr, want)
	}
}

// TestJobRunsOneGoldenRun: a sharded job is one campaign on one
// injector, so a cache-miss job records exactly one golden run however
// many shards it asks for, and its result replays on that injector.
func TestJobRunsOneGoldenRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newSupervisedServer(t, func(c *Config) {
		c.Metrics = reg
		c.ResultCacheDir = t.TempDir()
	})
	s.Start()
	req := &SubmitRequest{Program: "pathfinder", N: 60, Seed: 8, Shards: 3}
	res := submitAndWait(t, s, req, JobDone).Result()
	if res.Cached {
		t.Fatal("job was served from the cache")
	}
	if got := reg.Histogram("fi.golden_us").Snapshot().Count; got != 1 {
		t.Errorf("fi.golden_us recorded %d golden runs for a %d-shard job, want 1", got, req.Shards)
	}
	diffTrials(t, res.Trials, directTrials(t, req), "3-shard job")
}

// TestRequeuedJobForeignLogFails: a re-queued job whose log was written
// by another campaign (here: job.json's seed edited in the spool) ends
// failed with the checkpoint's header error, once; it is not retried or
// re-queued, and the foreign log is left as it was.
func TestRequeuedJobForeignLogFails(t *testing.T) {
	spool := t.TempDir()
	s1 := newSupervisedServer(t, func(c *Config) { c.Spool = spool })
	s1.Start()
	j1 := submitAndWait(t, s1, &SubmitRequest{Program: "nw", N: 30, Seed: 1, Shards: 2}, JobDone)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	logBefore, err := os.ReadFile(trialsPath(j1.dir))
	if err != nil {
		t.Fatal(err)
	}
	spoolJob(t, spool, j1.ID, fmt.Sprintf(`{"id": %q, "req": {"program": "nw", "n": 30, "seed": 2, "shards": 2}}`, j1.ID))

	reg := telemetry.NewRegistry()
	s2 := newSupervisedServer(t, func(c *Config) {
		c.Spool = spool
		c.Metrics = reg
	})
	j2 := s2.q.get(j1.ID)
	if j2 == nil || j2.State() != JobQueued {
		t.Fatal("restarted server did not re-queue the edited job")
	}
	s2.Start()
	if st := waitTerminal(t, j2); st != JobFailed {
		t.Fatalf("state = %s (%s), want failed", st, j2.status().Error)
	}
	if msg := j2.status().Error; !strings.Contains(msg, "was written by a different campaign") {
		t.Errorf("error = %q, want the checkpoint header mismatch", msg)
	}
	if j2.Result() != nil {
		t.Errorf("failed job serves a result: %+v", j2.Result())
	}
	if got := reg.Histogram("fi.golden_us").Snapshot().Count; got != 1 {
		t.Errorf("the job ran %d golden runs, want 1 (no retry)", got)
	}
	if err := s2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if logAfter, err := os.ReadFile(trialsPath(j1.dir)); err != nil || string(logAfter) != string(logBefore) {
		t.Errorf("the foreign log changed (err %v)", err)
	}
	s3 := newSupervisedServer(t, func(c *Config) { c.Spool = spool })
	if j3 := s3.q.get(j1.ID); j3 == nil || j3.State() != JobFailed {
		t.Error("restarted server does not hold the job as failed: it was re-queued or lost")
	}
}

// syncBuffer is a bytes.Buffer safe to read while a server writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// traceSpan is one span record of a JSONL trace.
type traceSpan struct {
	name       string
	start, end time.Time
	attrs      map[string]any
}

// readSpans parses the span records of a JSONL trace.
func readSpans(t *testing.T, trace string) []traceSpan {
	t.Helper()
	var spans []traceSpan
	for _, line := range strings.Split(strings.TrimSpace(trace), "\n") {
		var rec struct {
			TS    time.Time      `json:"ts"`
			Ev    string         `json:"ev"`
			Name  string         `json:"name"`
			DurUS int64          `json:"dur_us"`
			Attrs map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if rec.Ev == "span" {
			end := rec.TS.Add(time.Duration(rec.DurUS) * time.Microsecond)
			spans = append(spans, traceSpan{rec.Name, rec.TS, end, rec.Attrs})
		}
	}
	return spans
}

// TestJobTraceBracketsInjectorSpans: with a server trace, a cache-miss
// job's span brackets its injector's golden-run, snapshot-capture and
// campaign spans, and a cache hit's span brackets a golden-run and a
// snapshot-capture span but no campaign.
func TestJobTraceBracketsInjectorSpans(t *testing.T) {
	var buf syncBuffer
	s := newSupervisedServer(t, func(c *Config) {
		c.Trace = telemetry.NewTrace(&buf)
		c.ResultCacheDir = t.TempDir()
		c.MaxConcurrentJobs = 1
	})
	s.Start()
	req := &SubmitRequest{Program: "pathfinder", N: 40, Seed: 3, Shards: 1}
	miss := submitAndWait(t, s, req, JobDone)
	hit := submitAndWait(t, s, req, JobDone)
	if miss.Result().Cached || !hit.Result().Cached {
		t.Fatalf("cached = %v, %v; want a miss, then a hit", miss.Result().Cached, hit.Result().Cached)
	}
	// A job's span ends after its state turns terminal; the drain waits
	// for it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	spans := readSpans(t, buf.String())
	for _, c := range []struct {
		id   string
		want map[string]int
	}{
		{miss.ID, map[string]int{"golden-run": 1, "snapshot-capture": 1, "campaign": 1}},
		{hit.ID, map[string]int{"golden-run": 1, "snapshot-capture": 1, "campaign": 0}},
	} {
		var job *traceSpan
		for i := range spans {
			if spans[i].name == "job" && spans[i].attrs["id"] == c.id {
				job = &spans[i]
			}
		}
		if job == nil {
			t.Fatalf("no job span for %s", c.id)
		}
		got := map[string]int{}
		for _, sp := range spans {
			// Durations are truncated to whole microseconds, so a child
			// may appear to end up to 1µs after its parent.
			if _, counted := c.want[sp.name]; counted && !sp.start.Before(job.start) && !sp.end.After(job.end.Add(time.Microsecond)) {
				got[sp.name]++
			}
		}
		for name, n := range c.want {
			if got[name] != n {
				t.Errorf("job %s brackets %d %s spans, want %d", c.id, got[name], name, n)
			}
		}
	}
}
