// This file is the server's whole-job result cache. An entry is a
// verbatim copy of a clean job's checkpoint log, kept under
// Config.ResultCacheDir/<fault.ModelVersion>/ as <header>-<sum>.jsonl:
// header is the content address of the log's checkpoint header
// (fault.Injector.CheckpointHash), the one definition of a campaign's
// identity; sum is the FNV-1a hash of the entry's bytes. A hit takes the
// path every job's result takes — FromCheckpoint on the job's injector —
// over the entry instead of the job's own log, so it is byte-identical
// to the original job's result apart from ID and Cached. Shards, Workers
// and SnapshotInterval are not in the header: they never change a trial
// outcome, so a 4-shard job may serve an 8-shard submission.
//
// Every doubt is a miss that runs the campaign: bytes that do not match
// their sum (a torn write, a flipped digit; counted in cache.torn), a
// header from another campaign (a 64-bit name collision), or a replay
// with missing or Errored trials. Only clean results enter the cache:
// terminal state done, zero missing trials, no errored trials.

package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"trident/internal/fault"
	"trident/internal/hashutil"
)

// cacheEntries lists the stored logs named by a campaign's header hash.
func (s *Server) cacheEntries(name string) []string {
	paths, _ := filepath.Glob(filepath.Join(s.cacheDir, name+"-*.jsonl"))
	return paths
}

// intact reports whether the entry at path still holds the bytes its
// name's sum was taken over.
func intact(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	sum := strings.TrimSuffix(filepath.Base(path), ".jsonl")
	return sum[strings.LastIndexByte(sum, '-')+1:] == hashutil.Hex(hashutil.Bytes(data))
}

// cachedResult replays j's campaign from a stored log on inj, the
// injector the job would run it on, or returns nil on a miss.
func (s *Server) cachedResult(j *Job, inj *fault.Injector, name string) *Result {
	var torn uint64
	for _, path := range s.cacheEntries(name) {
		if !intact(path) {
			fmt.Fprintf(os.Stderr, "server: result cache entry %s is corrupt (treating as miss)\n", path)
			torn++
			continue
		}
		if res, err := s.buildResult(j, inj, path, nil); err == nil && clean(res) {
			res.State, res.Cached = string(JobDone), true
			s.met.cacheLookup(true, torn)
			return res
		}
	}
	s.met.cacheLookup(false, torn)
	return nil
}

// clean reports whether res is complete and holds no Errored trial.
func clean(res *Result) bool {
	return res.Missing == 0 && res.Counts[fault.Errored.String()] == 0
}

// storeResult copies a finished job's log into the cache when — and
// only when — its result is clean, replacing any older entry of the
// same campaign. The copy is written to a temp file and renamed into
// place, so a reader sees a whole entry or none.
func (s *Server) storeResult(j *Job, name string, state JobState, res *Result) {
	if s.cacheDir == "" || state != JobDone || !clean(res) {
		return
	}
	if err := s.storeLog(name, trialsPath(j.dir)); err != nil {
		fmt.Fprintf(os.Stderr, "server: result cache write for job %s: %v\n", j.ID, err)
	}
}

func (s *Server) storeLog(name, log string) error {
	data, err := os.ReadFile(log)
	if err != nil {
		return err
	}
	// Listed before the rename, so of two jobs storing one campaign at
	// once, at least one entry survives the other's clean-up.
	old := s.cacheEntries(name)
	dst := filepath.Join(s.cacheDir, name+"-"+hashutil.Hex(hashutil.Bytes(data))+".jsonl")
	tmp, err := os.CreateTemp(s.cacheDir, name+"-*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), dst)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	for _, p := range old {
		if p != dst {
			os.Remove(p)
		}
	}
	return nil
}
