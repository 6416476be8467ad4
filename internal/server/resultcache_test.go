package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// submitAndWait submits req and blocks until the job terminates,
// failing the test unless it lands in wantState.
func submitAndWait(t *testing.T, s *Server, req *SubmitRequest, wantState JobState) *Job {
	t.Helper()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != wantState {
		t.Fatalf("state = %s (%s), want %s", st, j.status().Error, wantState)
	}
	return j
}

// stripIdentity clears the job-specific fields of a result so two
// jobs' payloads can be compared byte for byte.
func stripIdentity(res *Result) []byte {
	cp := *res
	cp.ID, cp.Cached = "", false
	b, err := json.Marshal(cp)
	if err != nil {
		panic(err)
	}
	return b
}

// cacheEntryFiles lists the JSON entry files under a cache directory.
func cacheEntryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && filepath.Ext(path) == ".json" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestResultCacheHitByteIdentical: resubmitting an identical campaign
// is served from the result cache — no trial runs — and the payload is
// byte-identical to the first job's, even when the resubmission asks
// for a different shard count (shards only multiply workers, so they
// are deliberately outside the cache key).
func TestResultCacheHitByteIdentical(t *testing.T) {
	cacheDir := t.TempDir()
	s := newSupervisedServer(t, func(c *Config) { c.ResultCacheDir = cacheDir })
	s.Start()

	req := &SubmitRequest{Program: "pathfinder", N: 40, Seed: 42, Shards: 2}
	j1 := submitAndWait(t, s, req, JobDone)
	res1 := j1.Result()
	if res1 == nil || res1.Cached {
		t.Fatalf("first run: result %+v, want a live (uncached) run", res1)
	}

	req2 := &SubmitRequest{Program: "pathfinder", N: 40, Seed: 42, Shards: 5}
	j2 := submitAndWait(t, s, req2, JobDone)
	res2 := j2.Result()
	if res2 == nil || !res2.Cached {
		t.Fatalf("second run: result %+v, want cached", res2)
	}
	if done := j2.status().Done; done != 0 {
		t.Errorf("cache-hit job ran %d trials", done)
	}
	if got, want := stripIdentity(res2), stripIdentity(res1); string(got) != string(want) {
		t.Errorf("cached result diverges:\n  got  %s\n  want %s", got, want)
	}
	if res2.ID != j2.ID {
		t.Errorf("cached result carries ID %q, want the hitting job's %q", res2.ID, j2.ID)
	}

	// A different seed is a different campaign: must re-run live.
	j3 := submitAndWait(t, s, &SubmitRequest{Program: "pathfinder", N: 40, Seed: 43, Shards: 2}, JobDone)
	if res3 := j3.Result(); res3 == nil || res3.Cached {
		t.Errorf("different seed served from cache: %+v", j3.Result())
	}
}

// TestResultCachePruneKeySeparation: pruned and unpruned submissions of
// the same campaign never share a cache entry — the prune mask hash is
// part of the key, so a bitlive rule change can only ever invalidate
// pruned entries. The served results are still byte-identical (exact
// reweighting), which is exactly why the separation has to live in the
// key rather than the payload.
func TestResultCachePruneKeySeparation(t *testing.T) {
	cacheDir := t.TempDir()
	s := newSupervisedServer(t, func(c *Config) { c.ResultCacheDir = cacheDir })
	s.Start()

	req := &SubmitRequest{Program: "rgb2gray", N: 30, Seed: 9, Shards: 2}
	res1 := submitAndWait(t, s, req, JobDone).Result()

	prunedReq := *req
	prunedReq.PruneBits = true
	j2 := submitAndWait(t, s, &prunedReq, JobDone)
	res2 := j2.Result()
	if res2.Cached {
		t.Fatal("pruned submission served from the unpruned cache entry")
	}
	if got, want := stripIdentity(res2), stripIdentity(res1); string(got) != string(want) {
		t.Errorf("pruned result diverges from unpruned:\n  got  %s\n  want %s", got, want)
	}
	if files := cacheEntryFiles(t, cacheDir); len(files) != 2 {
		t.Fatalf("cache holds %d entries, want 2 (one per prune setting)", len(files))
	}

	// Same-setting resubmissions hit their own entries.
	if !submitAndWait(t, s, &prunedReq, JobDone).Result().Cached {
		t.Error("pruned resubmission missed its cache entry")
	}
	if !submitAndWait(t, s, req, JobDone).Result().Cached {
		t.Error("unpruned resubmission missed its cache entry")
	}
}

// TestResultCacheTornEntryMisses: an entry torn by a crash mid-write
// (simulated by truncation) is detected and treated as a miss — the
// job re-runs live and produces the same result.
func TestResultCacheTornEntryMisses(t *testing.T) {
	cacheDir := t.TempDir()
	s := newSupervisedServer(t, func(c *Config) { c.ResultCacheDir = cacheDir })
	s.Start()

	req := &SubmitRequest{Program: "libquantum", N: 30, Seed: 7, Shards: 2}
	res1 := submitAndWait(t, s, req, JobDone).Result()

	files := cacheEntryFiles(t, cacheDir)
	if len(files) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := submitAndWait(t, s, req, JobDone)
	res2 := j2.Result()
	if res2.Cached {
		t.Fatal("torn cache entry was served as a hit")
	}
	if got, want := stripIdentity(res2), stripIdentity(res1); string(got) != string(want) {
		t.Errorf("re-run after torn entry diverges:\n  got  %s\n  want %s", got, want)
	}
	// The re-run repaired the entry: a third submission hits again.
	j3 := submitAndWait(t, s, req, JobDone)
	if !j3.Result().Cached {
		t.Error("cache not repopulated after torn-entry re-run")
	}
}

// TestResultCacheSurvivesRestart: the cache lives on disk, so a fresh
// server process (even over a brand-new spool) serves a campaign an
// earlier incarnation completed.
func TestResultCacheSurvivesRestart(t *testing.T) {
	cacheDir := t.TempDir()
	req := &SubmitRequest{Program: "hotspot", N: 24, Seed: 11, Shards: 2}

	s1 := newSupervisedServer(t, func(c *Config) { c.ResultCacheDir = cacheDir })
	s1.Start()
	res1 := submitAndWait(t, s1, req, JobDone).Result()

	s2 := newSupervisedServer(t, func(c *Config) { c.ResultCacheDir = cacheDir })
	s2.Start()
	res2 := submitAndWait(t, s2, req, JobDone).Result()
	if !res2.Cached {
		t.Fatal("restarted server missed a cached campaign")
	}
	if got, want := stripIdentity(res2), stripIdentity(res1); string(got) != string(want) {
		t.Errorf("cross-restart cached result diverges:\n  got  %s\n  want %s", got, want)
	}
}

// TestResultCacheSkipsDirtyResults: cancelled (incomplete) jobs never
// enter the cache — the next identical submission runs live.
func TestResultCacheSkipsDirtyResults(t *testing.T) {
	cacheDir := t.TempDir()
	s := newSupervisedServer(t, func(c *Config) {
		c.ResultCacheDir = cacheDir
		c.ChaosTrialDelay = 2 * time.Millisecond
	})
	s.Start()

	req := &SubmitRequest{Program: "bfs-parboil", N: 400, Seed: 5, Shards: 2}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j.requestCancel() {
		j.setState(JobCancelled, "cancelled by client")
	}
	if st := waitTerminal(t, j); st != JobCancelled {
		t.Fatalf("state = %s, want cancelled", st)
	}

	if files := cacheEntryFiles(t, cacheDir); len(files) != 0 {
		t.Fatalf("cancelled job left %d cache entries", len(files))
	}
	j2 := submitAndWait(t, s, &SubmitRequest{Program: "bfs-parboil", N: 400, Seed: 5, Shards: 2}, JobDone)
	if j2.Result().Cached {
		t.Error("incomplete campaign was served from cache")
	}
}
