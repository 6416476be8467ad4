package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
)

// numVariants is how many input sets the benchmark has. A --seed picks
// variant seed mod numVariants; every variant's expected outputs are
// committed in reference.json, so every run checks its outputs against
// a fixed reference instead of against itself.
const numVariants = 10

// refPath is the committed reference, relative to the repository root.
const refPath = "perfbench/reference.json"

// modelTol is how far a kernel's predicted SDC may move from the
// reference: the model sums floats in map order, which moves the last
// digits from run to run.
const modelTol = 1e-6

// fiRef is one plain campaign's expected outcome.
type fiRef struct {
	Counts outcomeCounts `json:"counts"`
	SDC    float64       `json:"sdc"`
}

// sampledRef is one sampled-mode campaign's expected outcome.
type sampledRef struct {
	Executed int           `json:"executed"`
	SDC      float64       `json:"sdc"`
	Counts   outcomeCounts `json:"counts"`
}

// variantRef holds every expected output of one input variant.
type variantRef struct {
	// Model maps kernel → predicted overall SDC probability.
	Model map[string]float64 `json:"model"`
	// FI maps kernel → 3000-trial campaign outcome.
	FI map[string]fiRef `json:"fi"`
	// Sampled maps "kernel/mode" → campaign outcome.
	Sampled map[string]sampledRef `json:"sampled"`
	// Jobs maps "program/seed" → SHA-256 of the local campaign's trial
	// transcript in the server's wire form.
	Jobs map[string]string `json:"jobs"`
}

type reference struct {
	Variants []variantRef `json:"variants"`
}

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(ref.Variants) != numVariants {
		return nil, fmt.Errorf("%s: %d variants, want %d", path, len(ref.Variants), numVariants)
	}
	return &ref, nil
}

// sameCounts reports whether two outcome tallies are identical.
func sameCounts(a, b outcomeCounts) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// writeReference computes every variant's expected outputs through the
// same adapters the runs use (the server jobs through a local campaign)
// and writes them to path.
func writeReference(path string) error {
	ref := reference{Variants: make([]variantRef, numVariants)}
	for v := range ref.Variants {
		vr := variantRef{
			Model: map[string]float64{}, FI: map[string]fiRef{},
			Sampled: map[string]sampledRef{}, Jobs: map[string]string{},
		}
		seed := variantSeed(v)
		for _, k := range paperKernels() {
			sdc, err := analyze(k, seed)
			if err != nil {
				return err
			}
			vr.Model[k] = sdc
			r, err := campaign(k, seed, fiTrials)
			if err != nil {
				return err
			}
			vr.FI[k] = fiRef{Counts: r.counts, SDC: r.sdc}
		}
		for _, k := range sampledKernels {
			for _, mode := range sampledModes {
				r, err := runSampled(nil, -1, k, mode, seed, sampledSlots, nil)
				if err != nil {
					return err
				}
				vr.Sampled[k+"/"+mode] = sampledRef{Executed: r.executed, SDC: r.sdc, Counts: r.counts}
			}
		}
		if err := jobRefs(v, vr.Jobs); err != nil {
			return err
		}
		ref.Variants[v] = vr
		fmt.Fprintf(os.Stderr, "reference: variant %d done\n", v)
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// jobRefs fills out with the transcript hash of every distinct job of
// variant v, computing two at a time.
func jobRefs(v int, out map[string]string) error {
	specs := jobSpecs(v)
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs = make([]error, 2)
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(specs); i += 2 {
				trials, err := localTranscript(specs[i], jobWorkers)
				if err != nil {
					errs[w] = err
					return
				}
				h := transcriptHash(trials)
				mu.Lock()
				out[specs[i].key()] = h
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func absDiff(a, b float64) float64 { return math.Abs(a - b) }
