package fault

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"trident/internal/bitlive"
)

// TestCheckpointHeaderGolden pins the exact header line every sampling
// mode writes, byte for byte: logs written by earlier versions must keep
// resuming, so any change to the header's fields, order or hashes has
// to show up here first.
func TestCheckpointHeaderGolden(t *testing.T) {
	plan := bitlive.DefaultPlan()
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"random", Options{Seed: 5},
			`{"version":1,"module":"rgb2gray","kind":"random","seed":5,"space":2539,"n":20,"module_hash":"5612fc0be6297d17","prune":"none","stratify":"none"}`},
		{"pruned", Options{Seed: 5, PruneBits: true},
			`{"version":1,"module":"rgb2gray","kind":"random","seed":5,"space":2539,"n":20,"module_hash":"5612fc0be6297d17","prune":"b441696abe3e6364","stratify":"none"}`},
		{"stratified", Options{Seed: 5, Stratify: &plan},
			`{"version":1,"module":"rgb2gray","kind":"stratified","seed":5,"space":2539,"n":20,"module_hash":"5612fc0be6297d17","prune":"none","stratify":"971114fe36d33d72"}`},
		{"adaptive", Options{Seed: 5, Adaptive: &AdaptiveConfig{}},
			`{"version":1,"module":"rgb2gray","kind":"adaptive","seed":5,"space":2539,"n":20,"module_hash":"5612fc0be6297d17","prune":"none","stratify":"b63fc16cf6bce9ba"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := stratInjector(t, "rgb2gray", tc.opts)
			path := filepath.Join(t.TempDir(), "ck.jsonl")
			if _, err := inj.Campaign(context.Background(), 20, Run{Checkpoint: path}); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			header, _, _ := bytes.Cut(data, []byte("\n"))
			if got := string(header); got != tc.want {
				t.Errorf("header drifted:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}
