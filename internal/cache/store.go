// Package cache is the content-addressed store behind the campaign
// server's whole-job result cache (internal/server): a finished job's
// result is stored under a key built from the campaign's content
// address — module hash, fault-model version, seed, trial count and
// sampling design — so an identical later job is served without running
// a trial. Because every ingredient of the key is a content address,
// staleness does not exist as a state — a stale entry is simply an entry
// whose key is never asked for again.
//
// The store itself is generic: any JSON-serializable (key, payload) pair
// can be stored. Disk corruption is never trusted and never fatal: each
// entry carries a checksum over its key and payload bytes, and a torn or
// tampered entry (the SIGKILL-mid-write case) is detected, reported
// through the cache.torn counter, and treated as a miss, mirroring the
// checkpoint log's torn-tail tolerance. DESIGN.md §5h covers how
// campaigns are re-run, this cache among them.
package cache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"trident/internal/hashutil"
	"trident/internal/telemetry"
)

// warnf reports non-fatal cache anomalies (torn entries, unreadable
// files). Tests swap it to capture output.
var warnf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// storeVersion is bumped whenever the envelope layout changes; entries
// with a different version are misses.
const storeVersion = 1

// envelope is the on-disk form of one entry. Key and Payload are kept as
// raw JSON so the checksum is defined over the exact bytes written, and
// so Get can verify the stored key is byte-identical to the requested
// one (a 64-bit filename collision must read as a miss, not as the wrong
// entry).
type envelope struct {
	Version  int             `json:"version"`
	Key      json.RawMessage `json:"key"`
	Payload  json.RawMessage `json:"payload"`
	Checksum string          `json:"checksum"`
}

// checksum is the FNV-1a hash of the key bytes, a newline separator (no
// top-level JSON value contains one), and the payload bytes.
func checksum(key, payload []byte) string {
	buf := make([]byte, 0, len(key)+1+len(payload))
	buf = append(buf, key...)
	buf = append(buf, '\n')
	buf = append(buf, payload...)
	return hashutil.Hex(hashutil.Bytes(buf))
}

// Options configures a Store. Both fields may be zero: a nil Metrics
// registry disables counters, a nil Trace disables spans.
type Options struct {
	Metrics *telemetry.Registry
	Trace   *telemetry.Trace
}

// Store is a content-addressed key→payload store rooted at a directory.
// It is safe for concurrent use by multiple goroutines and multiple
// processes: writes are atomic (tmp+rename within the store directory)
// and readers validate checksums, so the worst outcome of a race or a
// crash is a detected miss.
type Store struct {
	dir   string
	trace *telemetry.Trace

	hits, misses, torn *telemetry.Counter
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	s := &Store{dir: dir, trace: opts.Trace}
	if reg := opts.Metrics; reg != nil {
		s.hits = reg.Counter("cache.hits")
		s.misses = reg.Counter("cache.misses")
		s.torn = reg.Counter("cache.torn")
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a key's JSON bytes to the entry's file path. The first hex
// byte fans entries out across 256 subdirectories so large campaign
// histories do not pile into one directory.
func (s *Store) path(keyBytes []byte) string {
	hex := hashutil.Hex(hashutil.Bytes(keyBytes))
	return filepath.Join(s.dir, hex[:2], hex+".json")
}

func (s *Store) inc(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Get looks up key and, on a hit, unmarshals the stored payload into
// payload (which must be a pointer). Every failure mode — missing file,
// torn write, checksum mismatch, filename collision, schema mismatch —
// is a miss; corruption is additionally reported via warnf and the
// cache.torn counter. A miss never carries an error: the caller's
// recovery is always the same (recompute and Put).
func (s *Store) Get(key, payload any) bool {
	keyBytes, err := json.Marshal(key)
	if err != nil {
		warnf("cache: unmarshalable key %T: %v", key, err)
		s.inc(s.misses)
		return false
	}
	path := s.path(keyBytes)
	span := s.trace.Start("cache.get", telemetry.Attrs{"entry": filepath.Base(path)})
	hit := s.get(keyBytes, path, payload)
	span.EndWith(telemetry.Attrs{"hit": hit})
	if hit {
		s.inc(s.hits)
	} else {
		s.inc(s.misses)
	}
	return hit
}

func (s *Store) get(keyBytes []byte, path string, payload any) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			warnf("cache: reading %s: %v (treating as miss)", path, err)
			s.inc(s.torn)
		}
		return false
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		warnf("cache: torn entry %s: %v (treating as miss)", path, err)
		s.inc(s.torn)
		return false
	}
	if env.Version != storeVersion {
		warnf("cache: entry %s has version %d, want %d (treating as miss)",
			path, env.Version, storeVersion)
		return false
	}
	if got, want := env.Checksum, checksum(env.Key, env.Payload); got != want {
		warnf("cache: entry %s fails checksum (%s, want %s; treating as miss)",
			path, got, want)
		s.inc(s.torn)
		return false
	}
	if string(env.Key) != string(keyBytes) {
		// 64-bit filename collision between distinct keys: astronomically
		// rare, but the checksummed key makes it a detected miss.
		warnf("cache: entry %s holds a different key (filename collision; treating as miss)", path)
		return false
	}
	if err := json.Unmarshal(env.Payload, payload); err != nil {
		warnf("cache: entry %s payload does not decode: %v (treating as miss)", path, err)
		s.inc(s.torn)
		return false
	}
	return true
}

// Put stores payload under key, atomically replacing any existing entry.
// The write goes to a temp file in the entry's directory and is renamed
// into place, so concurrent readers see either the old entry or the new
// one, never a torn mix.
func (s *Store) Put(key, payload any) error {
	keyBytes, err := json.Marshal(key)
	if err != nil {
		return fmt.Errorf("cache: marshaling key: %w", err)
	}
	payloadBytes, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("cache: marshaling payload: %w", err)
	}
	env := envelope{
		Version:  storeVersion,
		Key:      keyBytes,
		Payload:  payloadBytes,
		Checksum: checksum(keyBytes, payloadBytes),
	}
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("cache: marshaling envelope: %w", err)
	}
	path := s.path(keyBytes)
	span := s.trace.Start("cache.put", telemetry.Attrs{"entry": filepath.Base(path), "bytes": len(data)})
	defer span.End()
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}
