package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"trident/internal/hashutil"
	"trident/internal/telemetry"
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

// cacheEntryFiles lists the stored logs under a cache directory.
func cacheEntryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && filepath.Ext(path) == ".jsonl" {
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
// are deliberately outside the checkpoint header).
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
// (simulated by truncating it inside a record) fails its sum, counts in
// cache.torn, and re-runs to the same result, which replaces it.
func TestResultCacheTornEntryMisses(t *testing.T) {
	req := &SubmitRequest{Program: "libquantum", N: 30, Seed: 7, Shards: 2}
	assertCorruptEntryReplaced(t, req, func(t *testing.T, log []byte) []byte {
		cut := len(log) / 2
		for log[cut-1] == '\n' {
			cut--
		}
		return log[:cut]
	})
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

// onlyEntry returns the one stored log under a cache directory.
func onlyEntry(t *testing.T, dir string) string {
	t.Helper()
	files := cacheEntryFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(files))
	}
	return files[0]
}

// assertCorruptEntryReplaced stores one campaign, rewrites its cached
// log with corrupt, and requires the resubmission to miss, count the
// entry in cache.torn, re-run to the same result and leave one intact
// entry that the next resubmission hits.
func assertCorruptEntryReplaced(t *testing.T, req *SubmitRequest, corrupt func(t *testing.T, log []byte) []byte) {
	t.Helper()
	cacheDir := t.TempDir()
	reg := telemetry.NewRegistry()
	s := newSupervisedServer(t, func(c *Config) {
		c.ResultCacheDir = cacheDir
		c.Metrics = reg
	})
	s.Start()
	res1 := submitAndWait(t, s, req, JobDone).Result()

	entry := onlyEntry(t, cacheDir)
	data, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entry, corrupt(t, data), 0o644); err != nil {
		t.Fatal(err)
	}

	res2 := submitAndWait(t, s, req, JobDone).Result()
	if res2.Cached {
		t.Fatal("corrupt cache entry was served as a hit")
	}
	if got := reg.Counter("cache.torn").Load(); got != 1 {
		t.Errorf("cache.torn = %d, want 1", got)
	}
	if got, want := stripIdentity(res2), stripIdentity(res1); string(got) != string(want) {
		t.Errorf("re-run after corrupt entry diverges:\n  got  %s\n  want %s", got, want)
	}
	repaired := onlyEntry(t, cacheDir)
	if got, err := os.ReadFile(repaired); err != nil || !strings.HasSuffix(repaired, hashutil.Hex(hashutil.Bytes(got))+".jsonl") {
		t.Fatalf("re-run left entry %s that does not match its sum (err %v)", repaired, err)
	}
	if !submitAndWait(t, s, req, JobDone).Result().Cached {
		t.Error("cache not repopulated after the corrupt entry's re-run")
	}
}

// plantEntry replaces the cache entry at entry with data, stored under
// the same campaign name with data's own sum, and returns its path.
func plantEntry(t *testing.T, entry string, data []byte) string {
	t.Helper()
	base := filepath.Base(entry)
	name := base[:strings.IndexByte(base, '-')]
	planted := filepath.Join(filepath.Dir(entry), name+"-"+hashutil.Hex(hashutil.Bytes(data))+".jsonl")
	os.Remove(entry)
	if err := os.WriteFile(planted, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return planted
}

// TestResultCacheFlippedLatencyMisses: one flipped crash-latency digit
// still parses as a log — only the entry's sum catches it.
func TestResultCacheFlippedLatencyMisses(t *testing.T) {
	req := &SubmitRequest{Program: "pathfinder", N: 40, Seed: 21, Shards: 2}
	assertCorruptEntryReplaced(t, req, func(t *testing.T, log []byte) []byte {
		loc := regexp.MustCompile(`"latency":[0-9]+`).FindIndex(log)
		if loc == nil {
			t.Fatal("cached log holds no crash latency to flip")
		}
		out := append([]byte(nil), log...)
		d := &out[loc[1]-1]
		*d = '0' + (*d-'0'+1)%10
		return out
	})
}

// TestResultCacheForeignLogMisses: another campaign's intact log under
// the requested name — a 64-bit name collision — fails the checkpoint
// header check and re-runs; it is a miss, not corruption.
func TestResultCacheForeignLogMisses(t *testing.T) {
	cacheDir := t.TempDir()
	reg := telemetry.NewRegistry()
	s := newSupervisedServer(t, func(c *Config) {
		c.ResultCacheDir = cacheDir
		c.Metrics = reg
	})
	s.Start()

	req := &SubmitRequest{Program: "hotspot", N: 24, Seed: 1, Shards: 2}
	res1 := submitAndWait(t, s, req, JobDone).Result()
	entry := onlyEntry(t, cacheDir)
	if err := os.Remove(entry); err != nil {
		t.Fatal(err)
	}
	other := &SubmitRequest{Program: "hotspot", N: 24, Seed: 2, Shards: 2}
	submitAndWait(t, s, other, JobDone)
	foreign, err := os.ReadFile(onlyEntry(t, cacheDir))
	if err != nil {
		t.Fatal(err)
	}
	planted := plantEntry(t, entry, foreign)

	res2 := submitAndWait(t, s, req, JobDone).Result()
	if res2.Cached {
		t.Fatal("another seed's log was served as a hit")
	}
	if got, want := stripIdentity(res2), stripIdentity(res1); string(got) != string(want) {
		t.Errorf("re-run after a foreign entry diverges:\n  got  %s\n  want %s", got, want)
	}
	if got := reg.Counter("cache.torn").Load(); got != 0 {
		t.Errorf("cache.torn = %d, want 0: an intact foreign log is not corrupt", got)
	}
	if _, err := os.Stat(planted); !os.IsNotExist(err) {
		t.Errorf("the re-run did not replace the foreign entry (stat err %v)", err)
	}
	if !submitAndWait(t, s, req, JobDone).Result().Cached {
		t.Error("cache not repopulated after the foreign entry's re-run")
	}
}

// TestResultCacheIgnoresEnvelope: a result stored in the earlier
// checksummed-envelope format (<dir>/<2 hex>/<16 hex>.json) is never
// read: the job runs, nothing counts as torn, and the file is left as
// it was.
func TestResultCacheIgnoresEnvelope(t *testing.T) {
	cacheDir := t.TempDir()
	envelope := filepath.Join(cacheDir, "3f", "3fd2a1b06c5e9d47.json")
	body := []byte(`{"version":1,"key":{"kind":"job-result","seed":11},"payload":{"n":24,"counts":{"Benign":24}},"checksum":"0000000000000000"}`)
	if err := os.MkdirAll(filepath.Dir(envelope), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(envelope, body, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s := newSupervisedServer(t, func(c *Config) {
		c.ResultCacheDir = cacheDir
		c.Metrics = reg
	})
	s.Start()

	req := &SubmitRequest{Program: "hotspot", N: 24, Seed: 11, Shards: 2}
	if submitAndWait(t, s, req, JobDone).Result().Cached {
		t.Fatal("first job was served from an envelope")
	}
	if got := reg.Counter("cache.torn").Load(); got != 0 {
		t.Errorf("cache.torn = %d, want 0", got)
	}
	if got, err := os.ReadFile(envelope); err != nil || !bytes.Equal(got, body) {
		t.Errorf("the envelope changed (err %v)", err)
	}
	if !submitAndWait(t, s, req, JobDone).Result().Cached {
		t.Error("resubmission missed the job's own entry")
	}
}

// TestResultCacheIncompleteLogMisses: an intact log that replays with a
// missing trial, or with an Errored one, is never served: the job
// re-runs to the original result, and nothing counts as torn.
func TestResultCacheIncompleteLogMisses(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(records []string) []string
	}{
		{"missing", func(r []string) []string { return r[:len(r)-1] }},
		{"errored", func(r []string) []string {
			r[0] = regexp.MustCompile(`"outcome":"[A-Za-z]+"`).ReplaceAllString(r[0], `"outcome":"errored","attempts":1,"err":"boom"`)
			return r
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cacheDir := t.TempDir()
			reg := telemetry.NewRegistry()
			s := newSupervisedServer(t, func(c *Config) {
				c.ResultCacheDir = cacheDir
				c.Metrics = reg
			})
			s.Start()
			req := &SubmitRequest{Program: "nw", N: 30, Seed: 6, Shards: 2}
			res1 := submitAndWait(t, s, req, JobDone).Result()

			entry := onlyEntry(t, cacheDir)
			data, err := os.ReadFile(entry)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
			header, records := lines[0], lines[1:]
			edited := strings.TrimSuffix(header+strings.Join(tc.edit(records), ""), "\n") + "\n"
			plantEntry(t, entry, []byte(edited))

			res2 := submitAndWait(t, s, req, JobDone).Result()
			if res2.Cached {
				t.Fatalf("a %s-trial log was served as a hit", tc.name)
			}
			if got, want := stripIdentity(res2), stripIdentity(res1); string(got) != string(want) {
				t.Errorf("re-run diverges:\n  got  %s\n  want %s", got, want)
			}
			if got := reg.Counter("cache.torn").Load(); got != 0 {
				t.Errorf("cache.torn = %d, want 0", got)
			}
			if !submitAndWait(t, s, req, JobDone).Result().Cached {
				t.Error("cache not repopulated after the re-run")
			}
		})
	}
}

// TestResultCacheConcurrentStores: identical jobs running at once each
// miss, store and replace the campaign's entry concurrently; every
// result agrees, every entry left is intact, and the next job hits.
func TestResultCacheConcurrentStores(t *testing.T) {
	cacheDir := t.TempDir()
	s := newSupervisedServer(t, func(c *Config) {
		c.ResultCacheDir = cacheDir
		c.MaxConcurrentJobs = 4
	})
	s.Start()
	req := &SubmitRequest{Program: "pathfinder", N: 60, Seed: 17, Shards: 1}
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	var want []byte
	for _, j := range jobs {
		if st := waitTerminal(t, j); st != JobDone {
			t.Fatalf("state = %s (%s), want done", st, j.status().Error)
		}
		got := stripIdentity(j.Result())
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Errorf("concurrent job %s diverges:\n  got  %s\n  want %s", j.ID, got, want)
		}
	}
	files := cacheEntryFiles(t, cacheDir)
	if len(files) == 0 {
		t.Fatal("concurrent stores left no entry")
	}
	for _, f := range files {
		if !intact(f) {
			t.Errorf("entry %s does not match its sum", f)
		}
	}
	res := submitAndWait(t, s, req, JobDone).Result()
	if !res.Cached {
		t.Fatal("job after concurrent stores missed the cache")
	}
	if got := stripIdentity(res); string(got) != string(want) {
		t.Errorf("cached result diverges:\n  got  %s\n  want %s", got, want)
	}
}
