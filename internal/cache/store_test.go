package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trident/internal/telemetry"
)

// testKey, testPayload and testTrial stand in for a caller's key and
// payload: the store takes any JSON-serializable pair.
type testKey struct {
	Module string `json:"module"`
	Hash   string `json:"hash"`
	Seed   uint64 `json:"seed"`
	N      int    `json:"n"`
}

type testPayload struct {
	Counts map[string]int `json:"counts"`
	Trials []testTrial    `json:"trials"`
}

type testTrial struct {
	Instr    int    `json:"instr"`
	Instance uint64 `json:"instance"`
	Bit      int    `json:"bit"`
	Outcome  string `json:"outcome"`
	Latency  uint64 `json:"latency,omitempty"`
}

// captureWarnings redirects warnf for one test.
func captureWarnings(t *testing.T) *[]string {
	t.Helper()
	var got []string
	old := warnf
	warnf = func(format string, args ...any) { got = append(got, fmt.Sprintf(format, args...)) }
	t.Cleanup(func() { warnf = old })
	return &got
}

func counter(reg *telemetry.Registry, name string) uint64 {
	return reg.Counter(name).Load()
}

func TestStoreRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := Open(t.TempDir(), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey{Module: "main", Hash: "abc", Seed: 42, N: 10}
	in := testPayload{
		Counts: map[string]int{"benign": 7, "sdc": 3},
		Trials: []testTrial{{Instr: 4, Instance: 9, Bit: 17, Outcome: "sdc", Latency: 12}},
	}

	var out testPayload
	if s.Get(key, &out) {
		t.Fatal("Get before Put reported a hit")
	}
	if err := s.Put(key, in); err != nil {
		t.Fatal(err)
	}
	if !s.Get(key, &out) {
		t.Fatal("Get after Put missed")
	}
	if out.Counts["benign"] != 7 || out.Counts["sdc"] != 3 || len(out.Trials) != 1 || out.Trials[0] != in.Trials[0] {
		t.Errorf("round-tripped profile differs: %+v", out)
	}
	if h, m := counter(reg, "cache.hits"), counter(reg, "cache.misses"); h != 1 || m != 1 {
		t.Errorf("hits=%d misses=%d, want 1 and 1", h, m)
	}

	// A different key — even one differing only in the seed — misses.
	other := key
	other.Seed++
	if s.Get(other, &out) {
		t.Error("seed-differing key hit")
	}
}

func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey{Module: "f", Hash: "h", N: 1}
	if err := s1.Put(key, testPayload{Counts: map[string]int{"benign": 1}}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out testPayload
	if !s2.Get(key, &out) {
		t.Fatal("entry not visible after reopening the store")
	}
}

// entryFiles returns every entry file under the store.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(path, ".json") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestStoreTornEntryIsMiss simulates the SIGKILL-mid-write case: an
// entry truncated at every possible byte offset must read as a miss,
// never as corrupt data, and must bump the cache.torn counter.
func TestStoreTornEntryIsMiss(t *testing.T) {
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	s, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	warnings := captureWarnings(t)
	key := testKey{Module: "main", Hash: "abc", N: 5}
	if err := s.Put(key, testPayload{Counts: map[string]int{"sdc": 5}}); err != nil {
		t.Fatal(err)
	}
	files := entryFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("got %d entry files, want 1", len(files))
	}
	full, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(files[0], full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var out testPayload
		if s.Get(key, &out) {
			t.Fatalf("torn entry (truncated to %d/%d bytes) read as a hit", cut, len(full))
		}
	}
	if counter(reg, "cache.torn") == 0 {
		t.Error("cache.torn counter never incremented")
	}
	if len(*warnings) == 0 {
		t.Error("no warning emitted for torn entries")
	}

	// Re-putting heals the entry.
	if err := s.Put(key, testPayload{Counts: map[string]int{"sdc": 5}}); err != nil {
		t.Fatal(err)
	}
	var out testPayload
	if !s.Get(key, &out) || out.Counts["sdc"] != 5 {
		t.Error("re-put after torn entry did not restore the profile")
	}
}

// TestStoreDetectsBitFlip flips each byte of a valid entry and checks
// the checksum catches the tampering (apt, given the repository).
func TestStoreDetectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	captureWarnings(t)
	key := testKey{Module: "main", Hash: "abc", N: 5}
	if err := s.Put(key, testPayload{Counts: map[string]int{"sdc": 5, "benign": 0}}); err != nil {
		t.Fatal(err)
	}
	file := entryFiles(t, dir)[0]
	full, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		corrupt := append([]byte(nil), full...)
		corrupt[i] ^= 0x10
		if err := os.WriteFile(file, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		var out testPayload
		if s.Get(key, &out) {
			// A flip may land in JSON whitespace-free structure and still
			// parse; the checksum must then reject it. A hit is only
			// acceptable if the decoded payload is identical.
			if out.Counts["sdc"] != 5 {
				t.Fatalf("byte %d flipped: corrupt entry read as hit with wrong payload", i)
			}
		}
	}
}

func TestStorePutOverwrites(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey{Module: "main", Hash: "abc", N: 2}
	if err := s.Put(key, testPayload{Counts: map[string]int{"benign": 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, testPayload{Counts: map[string]int{"sdc": 2}}); err != nil {
		t.Fatal(err)
	}
	var out testPayload
	if !s.Get(key, &out) || out.Counts["sdc"] != 2 || out.Counts["benign"] != 0 {
		t.Errorf("overwrite not visible: %+v", out)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Error("Open(\"\") succeeded")
	}
}
