package fault

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
)

// TestShardRangePartition pins the shard arithmetic: the ranges
// partition [0, n) exactly, contiguously, with sizes differing by at
// most one — for every (n, shards) shape the server can produce.
func TestShardRangePartition(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 3001} {
		for _, shards := range []int{1, 2, 3, 7, 16} {
			next, min, max := 0, n, 0
			for s := 0; s < shards; s++ {
				lo, hi := ShardRange(n, s, shards)
				if lo != next {
					t.Fatalf("n=%d shards=%d: shard %d starts at %d, want %d", n, shards, s, lo, next)
				}
				if hi < lo {
					t.Fatalf("n=%d shards=%d: shard %d has negative size [%d,%d)", n, shards, s, lo, hi)
				}
				size := hi - lo
				if size < min {
					min = size
				}
				if size > max {
					max = size
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d shards=%d: partition ends at %d", n, shards, next)
			}
			if n >= shards && max-min > 1 {
				t.Fatalf("n=%d shards=%d: shard sizes differ by %d", n, shards, max-min)
			}
		}
	}
}

// TestShardSeedIndependence is the shard-transparency differential: for
// the same (program, fault model, seed), sharded campaigns merged back
// together must produce per-trial Detail records identical to the
// unsharded run, for every shard count in {1, 2, 3, 7} — shard identity
// must never leak into sampling. Each shard runs under its own Injector
// (a fresh golden run), exactly as independent shard worker processes
// do, so the test also covers cross-injector determinism. Subtests run
// on the production interpreter ("decoded").
func TestShardSeedIndependence(t *testing.T) {
	const n, seed = 70, 1234
	for _, name := range []string{"pathfinder", "nw"} {
		t.Run(name+"/decoded", func(t *testing.T) {
			build := mustProg(t, name).Build
			direct, err := New(build(), Options{Seed: seed, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			want, err := direct.CampaignRandom(context.Background(), n)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 3, 7} {
				dir := t.TempDir()
				var paths []string
				for s := 0; s < shards; s++ {
					inj, err := New(build(), Options{Seed: seed, Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					path := filepath.Join(dir, fmt.Sprintf("shard-%02d.jsonl", s))
					paths = append(paths, path)
					res, err := inj.CampaignShardCheckpoint(context.Background(), n, s, shards, path)
					if err != nil {
						t.Fatal(err)
					}
					lo, hi := ShardRange(n, s, shards)
					if res.N() != hi-lo {
						t.Fatalf("shard %d/%d ran %d trials, want %d", s, shards, res.N(), hi-lo)
					}
				}
				merged := filepath.Join(dir, "merged.jsonl")
				if _, err := MergeCheckpoints(merged, paths...); err != nil {
					t.Fatal(err)
				}
				got, missing, err := direct.CampaignFromCheckpoint(n, merged)
				if err != nil {
					t.Fatal(err)
				}
				if missing != 0 {
					t.Fatalf("%d shards: merged log missing %d trials", shards, missing)
				}
				if got.N() != want.N() {
					t.Fatalf("%d shards: merged %d trials, want %d", shards, got.N(), want.N())
				}
				for i := range want.Trials {
					if got.Trials[i] != want.Trials[i] {
						t.Errorf("%d shards: trial %d diverged: got %+v want %+v",
							shards, i, got.Trials[i], want.Trials[i])
					}
				}
				for o, c := range want.Counts {
					if got.Counts[o] != c {
						t.Errorf("%d shards: outcome %s count %d, want %d", shards, o, got.Counts[o], c)
					}
				}
			}
		})
	}
}

// TestMergeCheckpointsRejectsForeignLogs: stitching logs from different
// campaigns must fail instead of fabricating a result.
func TestMergeCheckpointsRejectsForeignLogs(t *testing.T) {
	build := mustProg(t, "pathfinder").Build
	dir := t.TempDir()
	a, err := New(build(), Options{Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(build(), Options{Seed: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pa := filepath.Join(dir, "a.jsonl")
	pb := filepath.Join(dir, "b.jsonl")
	if _, err := a.CampaignShardCheckpoint(context.Background(), 10, 0, 2, pa); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CampaignShardCheckpoint(context.Background(), 10, 1, 2, pb); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeCheckpoints(filepath.Join(dir, "m.jsonl"), pa, pb); err == nil {
		t.Fatal("merge across different seeds succeeded")
	}
}

// TestShardResumeAfterInterrupt: a shard cancelled mid-run resumes from
// its own checkpoint and the final merge is still bit-identical to the
// unsharded campaign — the crash-retry path of the shard supervisor.
func TestShardResumeAfterInterrupt(t *testing.T) {
	const n, seed, shards = 60, 99, 3
	build := mustProg(t, "pathfinder").Build
	direct, err := New(build(), Options{Seed: seed, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.CampaignRandom(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	for s := 0; s < shards; s++ {
		path := filepath.Join(dir, fmt.Sprintf("shard-%02d.jsonl", s))
		paths = append(paths, path)
		// First attempt: cancel after a few completions (worker crash).
		func() {
			inj, err := New(build(), Options{Seed: seed, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			seen := 0
			inj.opts.OnProgress = func(p Progress) {
				seen++
				if seen == 5 {
					cancel()
				}
			}
			defer cancel()
			if _, err := inj.CampaignShardCheckpoint(ctx, n, s, shards, path); err == nil && seen >= 5 {
				t.Fatal("cancelled shard returned no error")
			}
		}()
		// Retry: a fresh injector (fresh worker) finishes from the log.
		inj, err := New(build(), Options{Seed: seed, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inj.CampaignShardCheckpoint(context.Background(), n, s, shards, path); err != nil {
			t.Fatal(err)
		}
	}
	merged := filepath.Join(dir, "merged.jsonl")
	if _, err := MergeCheckpoints(merged, paths...); err != nil {
		t.Fatal(err)
	}
	got, missing, err := direct.CampaignFromCheckpoint(n, merged)
	if err != nil {
		t.Fatal(err)
	}
	if missing != 0 {
		t.Fatalf("merged log missing %d trials", missing)
	}
	for i := range want.Trials {
		if got.Trials[i] != want.Trials[i] {
			t.Errorf("trial %d diverged after interrupt+resume: got %+v want %+v",
				i, got.Trials[i], want.Trials[i])
		}
	}
}
