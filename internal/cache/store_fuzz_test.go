package cache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"trident/internal/telemetry"
)

// FuzzStoreGet writes arbitrary bytes as the entry file of one key and
// reads the key back. The envelope decoder is the one path every
// on-disk entry goes through (per-function profiles and the server's
// job results alike), so whatever the bytes, Get must not panic and
// must either
//
//   - hit, with exactly the payload a checksummed envelope of the
//     current version for that key holds, or
//   - miss, counted in cache.torn — unless the bytes decode as an
//     envelope of another version, or as an intact envelope for another
//     key, which are misses but not corruption.
func FuzzStoreGet(f *testing.F) {
	old := warnf
	warnf = func(string, ...any) {}
	f.Cleanup(func() { warnf = old })

	key := FuncKey{Kind: FuncProfileKind, Func: "main", BodyHash: "abc", Seed: 42, N: 2}
	keyBytes, err := json.Marshal(key)
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	seed, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := seed.Put(key, FuncProfile{
		Counts: map[string]int{"sdc": 1, "benign": 1},
		Trials: []TrialRec{{Instr: 3, Instance: 7, Bit: 5, Outcome: "sdc", Latency: 4}},
	}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seed.path(keyBytes))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(`"sdc":1`), []byte(`"sdc":9`), 1))
	f.Add(bytes.Replace(valid, []byte(`"version":1`), []byte(`"version":2`), 1))
	f.Add([]byte(`{"version":1,"key":null,"payload":null,"checksum":""}`))
	f.Add([]byte("null"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		reg := telemetry.NewRegistry()
		s, err := Open(dir, Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		path := s.path(keyBytes)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got FuncProfile
		hit := s.Get(key, &got)
		torn := reg.Counter("cache.torn").Load()
		if h, m := reg.Counter("cache.hits").Load(), reg.Counter("cache.misses").Load(); h+m != 1 {
			t.Fatalf("hits=%d misses=%d after one Get", h, m)
		}

		var env envelope
		decodes := json.Unmarshal(data, &env) == nil
		intact := decodes && env.Version == storeVersion && env.Checksum == checksum(env.Key, env.Payload)
		if hit {
			if !intact || string(env.Key) != string(keyBytes) {
				t.Fatalf("hit on an entry that is not an intact envelope for the key: %q", data)
			}
			var want FuncProfile
			if err := json.Unmarshal(env.Payload, &want); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("hit payload %+v, the envelope holds %+v (%v)", got, want, err)
			}
			if torn != 0 {
				t.Fatalf("hit counted in cache.torn")
			}
			return
		}
		legit := decodes && (env.Version != storeVersion || intact && string(env.Key) != string(keyBytes))
		if legit && torn != 0 || !legit && torn != 1 {
			t.Fatalf("miss on %q counted %d times in cache.torn", data, torn)
		}
	})
}
