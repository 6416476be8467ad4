// This file implements checkpoint stitching for sharded campaigns — the
// fault-layer half of the campaign server (internal/server).
//
// Sharding is transparent by construction: a campaign's trial list is
// a pure function of (module, seed, n), sampled sequentially from the
// campaign seed, and a shard (a Campaign run with Run.Shard/Shards)
// simply owns a contiguous slot range of that list. Shard identity never
// feeds the sampler or the thinning hash, so the union of the shards'
// trials is bit-identical to the unsharded campaign — the property the
// shard differential suite and internal/server's acceptance tests pin
// down. Each shard checkpoints independently; MergeCheckpoints stitches
// the shard logs back into one log, and FromCheckpoint reconstructs the
// campaign result from it without executing anything.

package fault

import "fmt"

// ShardRange returns the contiguous trial-index range [lo, hi) owned by
// shard (0-based) of shards. The ranges partition [0, n) exactly, with
// sizes differing by at most one.
func ShardRange(n, shard, shards int) (lo, hi int) {
	return n * shard / shards, n * (shard + 1) / shards
}

// MergeCheckpoints stitches shard checkpoint logs into a single log at
// dst, returning the number of merged records. Every source must carry
// an identical header (same module, kind, seed, activation space) or
// the merge fails — stitching logs from different campaigns would
// fabricate a result no run ever produced. Torn tails in sources are
// skipped with a warning, like any checkpoint load. When the same trial
// key appears in several sources (shards can overlap after operator
// error, and a campaign can sample the same spec twice), a classified
// record wins over an Errored one; classified duplicates agree by
// determinism. The merged log is a valid checkpoint: Campaign resumes
// it, executing any missing trials, and FromCheckpoint reconstructs the
// result from it without executing at all.
func MergeCheckpoints(dst string, srcs ...string) (int, error) {
	if len(srcs) == 0 {
		return 0, fmt.Errorf("fault: merge: no source checkpoints")
	}
	var meta checkpointMeta
	merged := make(map[TrialKey]TrialRecord)
	for i, src := range srcs {
		m, recs, _, err := loadLog(src)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			meta = m
		} else if err := m.matches(src, meta); err != nil {
			return 0, err
		}
		for k, rec := range recs {
			if old, ok := merged[k]; ok {
				if o, _ := outcomeFromName(old.Outcome); o != Errored {
					continue
				}
			}
			merged[k] = rec
		}
	}
	if err := writeLog(dst, meta, merged); err != nil {
		return 0, err
	}
	return len(merged), nil
}
