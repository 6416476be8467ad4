package crosscheck

import (
	"fmt"
	"sort"
	"strings"

	"trident/internal/ir"
	"trident/internal/irgen"
	"trident/internal/progs"
)

// Config bounds a corpus sweep.
type Config struct {
	// RandomPrograms is the number of irgen programs to generate (their
	// seeds are Seed, Seed+1, ...).
	RandomPrograms int
	// Seed is the first random-program seed and the base seed for the
	// model and campaign invariants.
	Seed uint64
	// Kernels includes the 11 paper benchmark kernels in the sweep.
	Kernels bool
	// Invariants enables the metamorphic model/protection checks (they
	// profile and model every program, which costs more than the
	// interpreter oracle alone).
	Invariants bool
	// ProtectTrials is the number of injection trials per program in the
	// protection invariant (0 = default 32).
	ProtectTrials int
	// CheckpointDir, when non-empty, enables the checkpoint-resume
	// bit-identity check using this scratch directory.
	CheckpointDir string
	// Progress, when non-nil, receives one line per checked program.
	Progress func(string)
}

// Report aggregates a corpus sweep.
type Report struct {
	// Programs is the number of modules checked.
	Programs int
	// Checks is the number of per-program check groups executed.
	Checks int
	// Mismatches collects every divergence and invariant violation.
	Mismatches []Mismatch
}

// Clean reports whether the sweep found nothing.
func (r *Report) Clean() bool { return len(r.Mismatches) == 0 }

// String renders a triage summary: mismatches grouped by check kind,
// then the full list.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "crosscheck: %d programs, %d check groups, %d mismatches\n",
		r.Programs, r.Checks, len(r.Mismatches))
	if len(r.Mismatches) == 0 {
		return sb.String()
	}
	byCheck := map[string]int{}
	for _, d := range r.Mismatches {
		key := d.Check
		if i := strings.IndexByte(key, '['); i >= 0 {
			key = key[:i]
		}
		byCheck[key]++
	}
	keys := make([]string, 0, len(byCheck))
	for k := range byCheck {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sb.WriteString("by check:\n")
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %-32s %d\n", k, byCheck[k])
	}
	sb.WriteString("details:\n")
	for _, d := range r.Mismatches {
		fmt.Fprintf(&sb, "  %s\n", d)
	}
	return sb.String()
}

// corpusEntry is one module plus its display name.
type corpusEntry struct {
	name string
	mod  *ir.Module
}

// buildCorpus materializes the sweep's modules.
func buildCorpus(cfg Config) []corpusEntry {
	var entries []corpusEntry
	for i := 0; i < cfg.RandomPrograms; i++ {
		seed := cfg.Seed + uint64(i)
		entries = append(entries, corpusEntry{
			name: fmt.Sprintf("rand-%d", seed),
			mod:  irgen.Generate(irgen.Config{Seed: seed}),
		})
	}
	if cfg.Kernels {
		for _, p := range progs.All() {
			entries = append(entries, corpusEntry{name: p.Name, mod: p.Build()})
		}
	}
	return entries
}

// RunCorpus sweeps the configured corpus through the interpreter oracle,
// the parser round trip and (optionally) the metamorphic invariants,
// returning the aggregated report. The first error from the harness
// itself (as opposed to a divergence, which is reported) aborts the
// sweep.
func RunCorpus(cfg Config) (*Report, error) {
	rep := &Report{}
	for _, e := range buildCorpus(cfg) {
		if cfg.Progress != nil {
			cfg.Progress(e.name)
		}
		rep.Programs++

		ms, err := CompareModule(e.name, e.mod)
		if err != nil {
			return nil, err
		}
		rep.Checks++
		rep.Mismatches = append(rep.Mismatches, ms...)

		ms, err = RoundTripModule(e.name, e.mod)
		if err != nil {
			return nil, err
		}
		rep.Checks++
		rep.Mismatches = append(rep.Mismatches, ms...)

		if cfg.Invariants {
			ms, err = CheckModelInvariants(e.name, e.mod, cfg.Seed)
			if err != nil {
				return nil, err
			}
			rep.Checks++
			rep.Mismatches = append(rep.Mismatches, ms...)

			ms, err = CheckProtectionInvariants(e.name, e.mod, cfg.Seed, cfg.ProtectTrials)
			if err != nil {
				return nil, err
			}
			rep.Checks++
			rep.Mismatches = append(rep.Mismatches, ms...)
		}

		if cfg.CheckpointDir != "" {
			ms, err = CheckCheckpointResume(e.name, e.mod, cfg.Seed, 40, 10, cfg.CheckpointDir)
			if err != nil {
				return nil, err
			}
			rep.Checks++
			rep.Mismatches = append(rep.Mismatches, ms...)
		}
	}
	return rep, nil
}
