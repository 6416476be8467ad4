// Differential acceptance suite: for every benchmark kernel, a
// campaign run through the server — sharded, checkpointed, replayed
// from its log — must be bit-identical, trial for trial, to a direct
// fault.Injector run with the same seed. This is the transparency
// contract of the whole service layer: HTTP, queueing, worker count,
// checkpointing and log replay may add operational machinery but must
// never change a single measured outcome.

package server

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"trident/internal/progs"
	"trident/internal/telemetry"
)

func TestServerDifferentialAllKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("11-kernel differential sweep is slow in -short mode")
	}
	s := newSupervisedServer(t, func(c *Config) {
		c.MaxConcurrentJobs = 4
	})
	s.Start()

	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			req := &SubmitRequest{Program: p.Name, N: 30, Seed: 2026, Shards: 3}
			j, err := s.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if st := waitTerminal(t, j); st != JobDone {
				t.Fatalf("state = %s (%s), want done", st, j.status().Error)
			}
			res := j.Result()
			if res == nil || res.Missing != 0 {
				t.Fatalf("result = %+v, want complete", res)
			}
			diffTrials(t, res.Trials, directTrials(t, req), p.Name)
			// The aggregate counts must agree with the trial list.
			total := 0
			for _, c := range res.Counts {
				total += c
			}
			if total != req.N {
				t.Errorf("counts sum to %d, want %d", total, req.N)
			}
		})
	}
}

// TestServerDifferentialDecodedEngine is the spool-upgrade contract: a
// job.json written before the interpreter engine became fixed still
// names an engine in its request. The lenient spool loader must accept
// it, and the recovered job must finish with the same result as a fresh
// submission of the same campaign and as a direct local run.
func TestServerDifferentialDecodedEngine(t *testing.T) {
	spool := t.TempDir()
	dir := filepath.Join(spool, "jobs", "job-spooled")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"job.json": `{
  "id": "job-spooled",
  "req": {
    "program": "nw",
    "n": 40,
    "seed": 11,
    "shards": 2,
    "engine": "legacy"
  }
}
`,
		"state.json": `{
  "state": "queued"
}
`,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := newSupervisedServer(t, func(c *Config) { c.Spool = spool })
	spooled := s.q.get("job-spooled")
	if spooled == nil {
		t.Fatal("server did not recover the spooled job")
	}
	s.Start()
	req := &SubmitRequest{Program: "nw", N: 40, Seed: 11, Shards: 2}
	fresh, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{spooled, fresh} {
		if st := waitTerminal(t, j); st != JobDone {
			t.Fatalf("%s: state = %s (%s), want done", j.ID, st, j.status().Error)
		}
	}
	diffTrials(t, spooled.Result().Trials, fresh.Result().Trials, "spooled vs fresh job")
	diffTrials(t, spooled.Result().Trials, directTrials(t, req), "spooled job vs direct run")
}

// TestServerSnapshotInterval pins the wire convention of
// snapshot_interval: a job that leaves it unset runs its campaign by
// snapshot replay (the server's registry counts snapshot resumes), -1
// re-executes every trial from instruction 0, and both are
// trial-for-trial identical to a local full re-execution campaign.
func TestServerSnapshotInterval(t *testing.T) {
	for _, interval := range []int{0, -1} {
		t.Run(fmt.Sprintf("interval=%d", interval), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			s := newSupervisedServer(t, func(c *Config) { c.Metrics = reg })
			s.Start()
			req := &SubmitRequest{Program: "nw", N: 40, Seed: 11, Shards: 2, SnapshotInterval: interval}
			j, err := s.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if st := waitTerminal(t, j); st != JobDone {
				t.Fatalf("state = %s (%s), want done", st, j.status().Error)
			}
			resumes := reg.Counter("interp.snapshot.resumes").Load()
			if (resumes > 0) != (interval == 0) {
				t.Errorf("interp.snapshot.resumes = %d, want snapshot replay %v", resumes, interval == 0)
			}
			diffTrials(t, j.Result().Trials, directTrials(t, req), "job vs full re-execution")
		})
	}
}

// TestServerDifferentialPrunedJob pins prune_bits through the wire
// format and the exact-reweighting contract across the service layer: a
// pruned, sharded job must be bit-identical to an UNPRUNED direct run —
// same trials, same outcomes, same tallies — on a kernel where pruning
// actually skips a large share of the trials.
func TestServerDifferentialPrunedJob(t *testing.T) {
	s := newSupervisedServer(t, nil)
	s.Start()
	req := &SubmitRequest{Program: "rgb2gray", N: 40, Seed: 11, Shards: 2, PruneBits: true}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != JobDone {
		t.Fatalf("state = %s (%s), want done", st, j.status().Error)
	}
	unpruned := *req
	unpruned.PruneBits = false
	diffTrials(t, j.Result().Trials, directTrials(t, &unpruned), "rgb2gray/pruned")
}
