// Package trident is a from-scratch Go reproduction of TRIDENT, the
// three-level soft-error propagation model of Li et al., "Modeling
// Soft-Error Propagation in Programs" (DSN 2018).
//
// TRIDENT predicts, without fault injection, the probability that a
// transient hardware fault (a single bit flip in the destination register
// of a dynamic instruction) leads to a silent data corruption (SDC) — both
// per static instruction and for the whole program. It composes three
// sub-models: fs (static data-dependent instruction sequences), fc
// (control-flow divergence) and fm (memory-level propagation), built on
// one profiled execution.
//
// This package is the high-level façade. It exposes:
//
//   - Load: profile a program once and build a model over the profile,
//     the one pipeline every prediction below is read from;
//   - Analyze: profile a program and predict SDC probabilities;
//   - Campaign: run an LLFI-style fault-injection campaign (the ground
//     truth TRIDENT is validated against);
//   - Protect: the paper's use case — selective instruction duplication
//     under a performance-overhead bound, guided by the model.
//
// Programs are written in the repository's LLVM-flavored IR (see
// internal/ir); the eleven benchmarks of the paper's Table I ship in the
// registry and can be named directly. Lower-level control (custom model
// variants, direct access to profiles and sub-models) lives in the
// internal packages; the cmd/ binaries expose the full evaluation.
package trident

import (
	"context"
	"fmt"
	"sort"

	"trident/internal/core"
	"trident/internal/fault"
	"trident/internal/ir"
	"trident/internal/profile"
	"trident/internal/progs"
	"trident/internal/protect"
	"trident/internal/stats"
)

// ModelKind selects the model variant.
type ModelKind string

// Model variants: the full three-level model and the paper's two
// simplified comparison models.
const (
	ModelTrident ModelKind = "trident"
	ModelFSFC    ModelKind = "fs+fc"
	ModelFS      ModelKind = "fs"
)

func (k ModelKind) config() (core.Config, error) {
	switch k {
	case ModelTrident, "":
		return core.TridentConfig(), nil
	case ModelFSFC:
		return core.FSFCConfig(), nil
	case ModelFS:
		return core.FSOnlyConfig(), nil
	default:
		return core.Config{}, fmt.Errorf("trident: unknown model %q", k)
	}
}

// Benchmarks returns the names of the built-in benchmark programs: the
// paper's Table I kernels plus the narrow-output kernels added for the
// bit-liveness pruning work (ANALYSIS.md).
func Benchmarks() []string { return progs.Names() }

// InstrPrediction is one instruction's model prediction.
type InstrPrediction struct {
	// Instruction is the printed IR form.
	Instruction string
	// Location is "function:block:#id".
	Location string
	// SDC is the predicted SDC probability given fault activation.
	SDC float64
	// Crash is the estimated crash probability.
	Crash float64
	// ExecCount is the profiled dynamic execution count.
	ExecCount uint64
}

// Report is the result of Analyze.
type Report struct {
	// Program is the analyzed program's name.
	Program string
	// OverallSDC is the predicted program SDC probability.
	OverallSDC float64
	// Instrs lists per-instruction predictions, most SDC-prone first.
	Instrs []InstrPrediction
	// StaticInstrs and DynInstrs are program size characteristics.
	StaticInstrs int
	DynInstrs    uint64
	// PruningRatio is the fraction of dynamic memory dependencies removed
	// by static aggregation in the memory sub-model.
	PruningRatio float64
}

// Options configure Analyze, Campaign and Protect. The zero value uses
// paper-faithful defaults.
type Options struct {
	// Model selects the variant (default ModelTrident).
	Model ModelKind
	// Seed drives all deterministic sampling (default 1).
	Seed uint64
	// Samples is the FI trial count for Campaign and the evaluation
	// budget in Protect (default 3000).
	Samples int
	// Workers is the FI parallelism (default 4).
	Workers int
	// Context, when non-nil, cancels in-flight fault-injection campaigns
	// (Campaign, Protect); cancelled campaigns fail with the context's
	// error rather than running to completion.
	Context context.Context
	// SnapshotInterval tunes the snapshot-replay fault-injection engine:
	// golden-run state snapshots are captured roughly this many dynamic
	// instructions apart and each trial resumes from the nearest snapshot
	// before its injection point. Zero selects the default (2048);
	// negative disables snapshots so every trial re-executes from
	// instruction zero (full re-execution). Campaign results are
	// bit-identical either way.
	SnapshotInterval int
}

// faultOptions builds injector options from o, resolving the
// snapshot-interval convention above.
func (o Options) faultOptions() fault.Options {
	fo := fault.Options{Seed: o.Seed, Workers: o.Workers}
	if o.SnapshotInterval > 0 {
		fo.SnapshotInterval = uint64(o.SnapshotInterval)
	}
	return fo
}

// ctx resolves the configured context.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Samples == 0 {
		o.Samples = 3000
	}
	if o.SnapshotInterval == 0 {
		o.SnapshotInterval = 2048
	}
	return o
}

// Analysis is one program profiled once and the selected TRIDENT model
// built over that profile — the paper's Figure 1b pipeline, no fault
// injection involved. Load is the one way to build it; Analyze, Protect,
// ExplainTop and the model CLIs all read their predictions from it.
type Analysis struct {
	// Module is the program under test.
	Module *ir.Module
	// Profile is the profiled golden execution the model is built on.
	Profile *profile.Profile
	// Model is the selected model variant over Profile.
	Model *core.Model
	// Seed is the resolved seed the profile was collected with; pass it
	// to Model.OverallSDC for a sampled estimate.
	Seed uint64
}

// Load resolves program (a built-in benchmark name) or src (a program in
// textual IR form) — exactly one must be non-empty — profiles one
// execution with opts.Seed and builds the opts.Model variant over it.
func Load(program, src string, opts Options) (*Analysis, error) {
	opts = opts.withDefaults()
	cfg, err := opts.Model.config()
	if err != nil {
		return nil, err
	}
	m, err := progs.Load(program, src)
	if err != nil {
		return nil, err
	}
	prof, err := profile.Collect(m, profile.Options{Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	return &Analysis{Module: m, Profile: prof, Model: core.New(prof, cfg), Seed: opts.Seed}, nil
}

// Ranked returns the executed instructions that produce a value, most
// SDC-prone first; instructions with equal predicted SDC probability
// keep module order (function order, then instruction ID).
func (a *Analysis) Ranked() []*ir.Instr {
	var ranked []*ir.Instr
	a.Module.Instrs(func(in *ir.Instr) {
		if in.HasResult() && a.Profile.ExecCount[in] > 0 {
			ranked = append(ranked, in)
		}
	})
	sort.SliceStable(ranked, func(i, j int) bool {
		return a.Model.InstrSDC(ranked[i]) > a.Model.InstrSDC(ranked[j])
	})
	return ranked
}

// Analyze profiles the named built-in benchmark and predicts its SDC
// probabilities with the selected model — the paper's Figure 1b workflow,
// no fault injection involved.
func Analyze(program string, opts Options) (*Report, error) {
	return analyze(program, "", opts)
}

// AnalyzeIR is Analyze for a program in textual IR form.
func AnalyzeIR(src string, opts Options) (*Report, error) {
	return analyze("", src, opts)
}

func analyze(program, src string, opts Options) (*Report, error) {
	a, err := Load(program, src, opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Program:      a.Module.Name,
		OverallSDC:   a.Model.OverallSDC(0, a.Seed).SDC,
		StaticInstrs: a.Module.NumInstrs(),
		DynInstrs:    a.Profile.Golden.DynInstrs,
		PruningRatio: a.Profile.PruningRatio(),
	}
	for _, in := range a.Ranked() {
		rep.Instrs = append(rep.Instrs, InstrPrediction{
			Instruction: ir.FormatInstr(in),
			Location:    in.Pos(),
			SDC:         a.Model.InstrSDC(in),
			Crash:       a.Model.InstrCrash(in),
			ExecCount:   a.Profile.ExecCount[in],
		})
	}
	return rep, nil
}

// FIReport is the result of a fault-injection campaign.
type FIReport struct {
	// Program is the injected program's name.
	Program string
	// Trials is the number of injections performed.
	Trials int
	// SDC, Crash, Hang, Benign and Detected are outcome rates.
	SDC, Crash, Hang, Benign, Detected float64
	// ErrorBar95 is the half-width of the 95% confidence interval on SDC.
	ErrorBar95 float64
}

// Campaign runs an LLFI-style statistical fault-injection campaign on the
// named benchmark: opts.Samples single-bit flips into destination
// registers of uniformly sampled dynamic instructions, one per run.
func Campaign(program string, opts Options) (*FIReport, error) {
	m, err := progs.Load(program, "")
	if err != nil {
		return nil, err
	}
	return campaignModule(program, m, opts)
}

// CampaignIR is Campaign for a program in textual IR form.
func CampaignIR(src string, opts Options) (*FIReport, error) {
	m, err := progs.Load("", src)
	if err != nil {
		return nil, err
	}
	return campaignModule(m.Name, m, opts)
}

func campaignModule(name string, m *ir.Module, opts Options) (*FIReport, error) {
	opts = opts.withDefaults()
	inj, err := fault.New(m, opts.faultOptions())
	if err != nil {
		return nil, err
	}
	res, err := inj.CampaignRandom(opts.ctx(), opts.Samples)
	if err != nil {
		return nil, err
	}
	return &FIReport{
		Program:    name,
		Trials:     res.N(),
		SDC:        res.SDCProb(),
		Crash:      res.Rate(fault.Crash),
		Hang:       res.Rate(fault.Hang),
		Benign:     res.Rate(fault.Benign),
		Detected:   res.Rate(fault.Detected),
		ErrorBar95: stats.ProportionCI95(res.SDCProb(), res.N()),
	}, nil
}

// ProtectReport is the result of Protect.
type ProtectReport struct {
	// Program is the protected program's name.
	Program string
	// BudgetFraction is the requested share of the full-duplication cost.
	BudgetFraction float64
	// SelectedInstrs is the number of duplicated static instructions.
	SelectedInstrs int
	// Overhead is the measured dynamic-instruction overhead.
	Overhead float64
	// FullOverhead is the measured full-duplication overhead.
	FullOverhead float64
	// BaselineSDC and ProtectedSDC are FI-measured SDC probabilities
	// before and after protection.
	BaselineSDC, ProtectedSDC float64
	// DetectionRate is the FI-measured rate of faults caught by the
	// inserted checks.
	DetectionRate float64
}

// Protect applies the paper's use case (§VI) to the named benchmark:
// model-guided selective instruction duplication under a performance
// budget expressed as a fraction of the full-duplication cost (the paper
// evaluates 1/3 and 2/3). Fault injection is used only to evaluate the
// result, exactly as in the paper.
func Protect(program string, budgetFraction float64, opts Options) (*ProtectReport, error) {
	if budgetFraction < 0 || budgetFraction > 1 {
		return nil, fmt.Errorf("trident: budget fraction %v outside [0, 1]", budgetFraction)
	}
	opts = opts.withDefaults()
	a, err := Load(program, "", opts)
	if err != nil {
		return nil, err
	}
	m := a.Module
	sdc := make(map[*ir.Instr]float64)
	m.Instrs(func(in *ir.Instr) {
		if in.HasResult() {
			sdc[in] = a.Model.InstrSDC(in)
		}
	})

	cands := protect.Candidates(a.Profile, sdc)
	fullCost := protect.FullCost(cands)
	fullMod, err := protect.Apply(m, protect.SelectKnapsack(cands, fullCost).Selected)
	if err != nil {
		return nil, err
	}
	fullOverhead, err := protect.MeasureOverhead(m, fullMod)
	if err != nil {
		return nil, err
	}

	budget := uint64(budgetFraction * float64(fullCost))
	plan := protect.SelectKnapsack(cands, budget)
	protected, err := protect.Apply(m, plan.Selected)
	if err != nil {
		return nil, err
	}
	overhead, err := protect.MeasureOverhead(m, protected)
	if err != nil {
		return nil, err
	}

	baseInj, err := fault.New(m, opts.faultOptions())
	if err != nil {
		return nil, err
	}
	base, err := baseInj.CampaignRandom(opts.ctx(), opts.Samples)
	if err != nil {
		return nil, err
	}
	protInj, err := fault.New(protected, opts.faultOptions())
	if err != nil {
		return nil, err
	}
	prot, err := protInj.CampaignRandom(opts.ctx(), opts.Samples)
	if err != nil {
		return nil, err
	}

	return &ProtectReport{
		Program:        program,
		BudgetFraction: budgetFraction,
		SelectedInstrs: len(plan.Selected),
		Overhead:       overhead,
		FullOverhead:   fullOverhead,
		BaselineSDC:    base.SDCProb(),
		ProtectedSDC:   prot.SDCProb(),
		DetectionRate:  prot.Rate(fault.Detected),
	}, nil
}

// ExplainTop renders propagation-path explanations for the k most
// SDC-prone instructions of the named benchmark: how much of each
// instruction's predicted SDC probability flows directly to output,
// through corrupted stores chased by the memory sub-model, and through
// flipped branches.
func ExplainTop(program string, k int, opts Options) ([]string, error) {
	a, err := Load(program, "", opts)
	if err != nil {
		return nil, err
	}
	ranked := a.Ranked()
	if k > len(ranked) {
		k = len(ranked)
	}
	out := make([]string, 0, k)
	for _, in := range ranked[:k] {
		out = append(out, a.Model.Explain(in).String())
	}
	return out, nil
}
