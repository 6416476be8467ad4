package server

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// spoolJob writes a job dir holding job.json and a queued state.json.
func spoolJob(t testing.TB, spool, id, jobJSON string) string {
	t.Helper()
	dir := filepath.Join(spool, "jobs", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"job.json":   jobJSON,
		"state.json": `{"state": "queued"}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadJobRevalidates: a restarted server re-checks every spooled
// submission against its own limits. Jobs over a lowered trial, shard or
// wall-clock budget, and a job.json setting both stratify and
// stratify_adaptive, are skipped instead of re-queued; jobs within the
// limits still load, a positive or negative snapshot_interval included.
func TestLoadJobRevalidates(t *testing.T) {
	spool := t.TempDir()
	spoolJob(t, spool, "job-trials", `{"id": "job-trials", "req": {"program": "nw", "n": 500, "shards": 1}}`)
	spoolJob(t, spool, "job-shards", `{"id": "job-shards", "req": {"program": "nw", "n": 40, "shards": 8}}`)
	spoolJob(t, spool, "job-wall", `{"id": "job-wall", "req": {"program": "nw", "n": 40, "shards": 1, "max_wall_ms": 600000}}`)
	spoolJob(t, spool, "job-both", `{"id": "job-both", "req": {"program": "rgb2gray", "n": 40, "shards": 1, "stratify": true, "stratify_adaptive": true}}`)
	spoolJob(t, spool, "job-ok", `{"id": "job-ok", "req": {"program": "nw", "n": 40, "shards": 2}}`)
	spoolJob(t, spool, "job-snap", `{"id": "job-snap", "req": {"program": "nw", "n": 40, "shards": 2, "snapshot_interval": 512}}`)
	spoolJob(t, spool, "job-full", `{"id": "job-full", "req": {"program": "nw", "n": 40, "shards": 2, "snapshot_interval": -1}}`)

	s := newSupervisedServer(t, func(c *Config) {
		c.Spool = spool
		c.Limits = Limits{MaxTrials: 100, MaxShards: 4, MaxWall: time.Minute}
	})
	for _, id := range []string{"job-trials", "job-shards", "job-wall", "job-both"} {
		if s.q.get(id) != nil {
			t.Errorf("%s: an invalid spooled job was re-queued", id)
		}
	}
	if s.q.get("job-ok") == nil {
		t.Fatal("a valid spooled job was not recovered")
	}
	for id, want := range map[string]int{"job-snap": 512, "job-full": -1} {
		j := s.q.get(id)
		if j == nil {
			t.Fatalf("%s: a valid spooled job was not recovered", id)
		}
		if got := j.req.SnapshotInterval; got != want {
			t.Errorf("%s: snapshot_interval = %d, want %d", id, got, want)
		}
	}
	for _, id := range []string{"job-trials", "job-both"} {
		if _, _, err := loadJob(filepath.Join(spool, "jobs", id), s.limits); err == nil {
			t.Errorf("%s: loadJob accepted an invalid submission", id)
		}
	}
}

// FuzzLoadJob: whatever bytes job.json holds, loadJob must not panic,
// and any job it returns must pass Validate under the same limits.
func FuzzLoadJob(f *testing.F) {
	f.Add([]byte(`{"id": "j", "req": {"program": "nw", "n": 40, "seed": 11, "shards": 2}}`))
	f.Add([]byte(`{"id": "j", "req": {"program": "nw", "n": 40, "seed": 11, "shards": 2, "engine": "legacy"}}`))
	f.Add([]byte(`{"id": "j", "req": {"program": "rgb2gray", "n": 9, "shards": 1, "stratify": true, "stratify_adaptive": true}}`))
	f.Add([]byte(`{"id": "j", "req": {"ir": "func @main() {\n}", "n": 2000000, "shards": 1}}`))
	f.Add([]byte(`{"id": "j", "req": null}`))
	f.Add([]byte(`{"id": ""}`))
	f.Add([]byte(`{`))
	f.Add([]byte("\x00\xff"))
	lim := Limits{MaxTrials: 1000, MaxShards: 4}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "job.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, _, err := loadJob(dir, lim)
		if err != nil {
			return
		}
		if err := j.req.Validate(lim); err != nil {
			t.Fatalf("loadJob returned a job that fails Validate: %v", err)
		}
		if j.req.Shards < 1 {
			t.Fatalf("loaded job has %d shards", j.req.Shards)
		}
	})
}
