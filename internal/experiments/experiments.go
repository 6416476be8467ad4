// Package experiments regenerates every table and figure of the paper's
// evaluation (§V–§VII): benchmark characteristics (Table I), overall and
// per-instruction accuracy against fault injection (Fig. 5, Table II),
// scalability (Fig. 6a/6b, Fig. 7), selective-protection effectiveness
// (Fig. 8), and the PVF/ePVF comparison (Fig. 9).
//
// Each experiment returns structured rows, which the repository
// benchmarks and tests use directly. Registry pairs every experiment with
// a layout of its result as Tables, the one report model that
// cmd/experiments renders as text or markdown. Per-program state
// (profile, injector, models) is cached so experiment suites do not redo
// work. DESIGN.md §4 maps every table and figure to its driver here and
// describes the registry; the pruning experiment is specified in
// DESIGN.md §5i.
package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"

	"trident/internal/core"
	"trident/internal/fault"
	"trident/internal/ir"
	"trident/internal/profile"
	"trident/internal/progs"
	"trident/internal/telemetry"
)

// Config tunes experiment fidelity. The zero value is replaced by paper
// defaults via withDefaults.
type Config struct {
	// Samples is the FI sample count for overall SDC probabilities
	// (paper: 3000).
	Samples int
	// PerInstr is the FI sample count per static instruction (paper: 100).
	PerInstr int
	// Seed drives all deterministic sampling.
	Seed uint64
	// Programs restricts the benchmark set; empty means all 11.
	Programs []string
	// Workers is the FI campaign parallelism (0 = injector default).
	Workers int
	// Context, when non-nil, cancels in-flight fault-injection campaigns;
	// the experiment run then fails with the context's error instead of
	// running to completion.
	Context context.Context
	// CheckpointDir, when set, persists every statistical campaign as a
	// JSONL log in that directory so an interrupted experiment run resumes
	// with its completed trials replayed from disk.
	// A re-run over a complete log executes no trial: the log header
	// pins the module hash, so an unchanged campaign replays in full.
	CheckpointDir string
	// Metrics, when non-nil, receives campaign and interpreter telemetry
	// from every injector the experiments build (see OBSERVABILITY.md).
	Metrics *telemetry.Registry
	// Trace, when non-nil, receives a span per program load and per
	// statistical campaign, labeled with the benchmark and experiment.
	Trace *telemetry.Trace
	// Progress, when non-nil, observes every running campaign's trial
	// completions (fault.Options.OnProgress semantics); cmd/experiments
	// feeds it into a live stderr progress line.
	Progress func(fault.Progress)
}

// faultOptions builds injector options for the given sampling seed,
// threading the config's observability sinks into the campaign engine.
func (c Config) faultOptions(seed uint64) fault.Options {
	return fault.Options{
		Seed:       seed,
		Workers:    c.Workers,
		Metrics:    c.Metrics,
		Trace:      c.Trace,
		OnProgress: c.Progress,
	}
}

// ctx resolves the configured cancellation context.
func (c Config) ctx() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// campaignRandom runs inj's statistical campaign under the config's
// lifecycle policy: the shared cancellation context and, when
// CheckpointDir is set, a per-label checkpoint log enabling resume. label
// must uniquely identify the campaign within the experiment suite.
func (c Config) campaignRandom(inj *fault.Injector, label string, n int) (*fault.CampaignResult, error) {
	span := c.Trace.Start("experiment-campaign", telemetry.Attrs{"label": label, "n": n})
	var res *fault.CampaignResult
	var err error
	if c.CheckpointDir == "" {
		res, err = inj.CampaignRandom(c.ctx(), n)
	} else {
		path := filepath.Join(c.CheckpointDir,
			fmt.Sprintf("%s-seed%d-n%d.jsonl", label, c.Seed, n))
		var ar *fault.AdaptiveResult
		if ar, err = inj.Campaign(c.ctx(), n, fault.Run{Checkpoint: path}); ar != nil {
			res = ar.CampaignResult
		}
	}
	if res != nil {
		span.EndWith(telemetry.Attrs{"done": res.N(), "sdc": res.Counts[fault.SDC]})
	} else {
		span.EndWith(telemetry.Attrs{"err": fmt.Sprint(err)})
	}
	return res, err
}

func (c Config) withDefaults() Config {
	if c.Samples == 0 {
		c.Samples = 3000
	}
	if c.PerInstr == 0 {
		c.PerInstr = 100
	}
	if c.Seed == 0 {
		c.Seed = 2018 // DSN'18
	}
	if len(c.Programs) == 0 {
		for _, p := range progs.All() {
			c.Programs = append(c.Programs, p.Name)
		}
	}
	return c
}

// ProgramData is the cached per-program state shared by experiments.
type ProgramData struct {
	Program  progs.Program
	Module   *ir.Module
	Profile  *profile.Profile
	Injector *fault.Injector

	Trident *core.Model
	FSFC    *core.Model
	FSOnly  *core.Model

	// costOnce guards cost and costErr, the program's FI-trial and
	// profiling prices (see costs).
	costOnce sync.Once
	cost     programCost
	costErr  error
}

// loader caches ProgramData by (name, seed, workers).
type loader struct {
	mu    sync.Mutex
	cache map[string]*ProgramData
}

var sharedLoader = &loader{cache: make(map[string]*ProgramData)}

// Load builds (or returns cached) per-program state.
func Load(name string, cfg Config) (*ProgramData, error) {
	cfg = cfg.withDefaults()
	key := fmt.Sprintf("%s/%d/%d", name, cfg.Seed, cfg.Workers)
	sharedLoader.mu.Lock()
	defer sharedLoader.mu.Unlock()
	if pd, ok := sharedLoader.cache[key]; ok {
		return pd, nil
	}

	prog, err := progs.ByName(name)
	if err != nil {
		return nil, err
	}
	span := cfg.Trace.Start("load", telemetry.Attrs{"program": name})
	m := prog.Build()
	prof, err := profile.Collect(m, profile.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	inj, err := fault.New(m, cfg.faultOptions(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	span.End()
	pd := &ProgramData{
		Program:  prog,
		Module:   m,
		Profile:  prof,
		Injector: inj,
		Trident:  core.New(prof, core.TridentConfig()),
		FSFC:     core.New(prof, core.FSFCConfig()),
		FSOnly:   core.New(prof, core.FSOnlyConfig()),
	}
	sharedLoader.cache[key] = pd
	return pd, nil
}

// loadAll loads the configured program set.
func loadAll(cfg Config) ([]*ProgramData, error) {
	cfg = cfg.withDefaults()
	out := make([]*ProgramData, 0, len(cfg.Programs))
	for _, name := range cfg.Programs {
		pd, err := Load(name, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, pd)
	}
	return out, nil
}

// Table1Row is one benchmark-characteristics row (Table I).
type Table1Row struct {
	Name        string
	Suite       string
	Area        string
	Input       string
	StaticInstr int
	DynInstr    uint64
	OutputLines int
	MemBytes    uint64
}

// Table1 regenerates Table I with the synthetic workloads' measured
// characteristics appended.
func Table1(cfg Config) ([]Table1Row, error) {
	data, err := loadAll(cfg)
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(data))
	for _, pd := range data {
		rows = append(rows, Table1Row{
			Name:        pd.Program.Name,
			Suite:       pd.Program.Suite,
			Area:        pd.Program.Area,
			Input:       pd.Program.Input,
			StaticInstr: pd.Module.NumInstrs(),
			DynInstr:    pd.Profile.Golden.DynInstrs,
			OutputLines: pd.Profile.Golden.OutputLines,
			MemBytes:    pd.Profile.PeakMemBytes,
		})
	}
	return rows, nil
}

// measuredCrashOracle builds an FI-measured per-instruction crash-rate
// oracle for the ePVF baseline, as the paper did (§VII-C gives ePVF its
// measured crashes, overestimating its accuracy).
func measuredCrashOracle(cfg Config, pd *ProgramData, perInstr int) (func(*ir.Instr) float64, error) {
	rates := make(map[*ir.Instr]float64)
	for _, target := range pd.Injector.Targets() {
		res, err := pd.Injector.CampaignPerInstr(cfg.ctx(), target, perInstr)
		if err != nil {
			return nil, err
		}
		rates[target] = res.Rate(fault.Crash)
	}
	return func(in *ir.Instr) float64 { return rates[in] }, nil
}

// freshModel builds an uncached TRIDENT model over pd's profile so timing
// measurements do not benefit from caches warmed by earlier experiments.
func freshModel(pd *ProgramData) *core.Model {
	return core.New(pd.Profile, core.TridentConfig())
}
