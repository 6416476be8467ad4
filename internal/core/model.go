package core

import (
	"trident/internal/analysis"
	"trident/internal/hashutil"
	"trident/internal/ir"
	"trident/internal/profile"
)

// Config selects the model variant and its knobs.
type Config struct {
	// EnableFC enables the control-flow sub-model. Disabling it (together
	// with EnableFM) yields the paper's fs-only comparison model.
	EnableFC bool
	// EnableFM enables the memory sub-model. Disabling it yields the
	// paper's fs+fc comparison model (a corrupted store is assumed to be
	// an SDC).
	EnableFM bool

	// DisableValueProfile makes fs use pure mechanism heuristics instead
	// of profiled operand values (ablation: §IV-C derives masking tuples
	// "based on the mechanism of the instruction and/or the profiled
	// values").
	DisableValueProfile bool
	// ExpandMemEdges makes fm operate on the unpruned dynamic dependence
	// multigraph: every static edge is replicated per dynamic dependency
	// with proportionally split weight. Results are identical; cost is
	// not — this is the ablation for the §IV-E pruning.
	ExpandMemEdges bool
	// FMMaxIters caps the memory sub-model's fixed-point sweeps
	// (0 = default 200). Low caps truncate cyclic store→load→store
	// propagation (ablation).
	FMMaxIters int
}

// TridentConfig is the full three-level model.
func TridentConfig() Config { return Config{EnableFC: true, EnableFM: true} }

// FSFCConfig is the fs+fc simplified model used for comparison in §V-B.
func FSFCConfig() Config { return Config{EnableFC: true, EnableFM: false} }

// FSOnlyConfig is the fs-only simplified model used for comparison.
func FSOnlyConfig() Config { return Config{EnableFC: false, EnableFM: false} }

// Model predicts SDC probabilities from a profile, without fault
// injection. Create with New; a Model is not safe for concurrent use, but
// any number of Models may share one read-only Profile.
type Model struct {
	prof *profile.Profile
	cfg  Config

	// g is the compiled def-use graph and scratch the walk state over it,
	// both built on first use (see compiled).
	g       *graph
	scratch scratch
	// walks caches walk results by node and walk mode.
	walks []*ends

	cfgs     map[*ir.Func]*analysis.CFG
	fcCache  map[*ir.Instr]*fcEffects
	fmOut    []float64
	sdcCache map[*ir.Instr]float64
	// composed is the decomposition InstrSDC reuses for each instruction.
	composed Explanation

	fmIterations int
	// work counts the fs fixpoint's effort over the model's lifetime.
	work fixpointWork
}

// fixpointWork counts the effort of the fs fixpoints: nodes reached,
// direct solves of cyclic components, and worklist pops of the
// components that fell back to iterating.
type fixpointWork struct {
	reached, rounds, pops int
}

// New builds a model over a collected profile.
func New(prof *profile.Profile, cfg Config) *Model {
	return &Model{
		prof:     prof,
		cfg:      cfg,
		cfgs:     make(map[*ir.Func]*analysis.CFG),
		fcCache:  make(map[*ir.Instr]*fcEffects),
		sdcCache: make(map[*ir.Instr]float64),
	}
}

// Profile returns the underlying profile.
func (m *Model) Profile() *profile.Profile { return m.prof }

func (m *Model) cfgOf(fn *ir.Func) *analysis.CFG {
	c, ok := m.cfgs[fn]
	if !ok {
		c = analysis.Analyze(fn)
		m.cfgs[fn] = c
	}
	return c
}

// InstrSDC predicts the SDC probability of a fault activated in the
// destination register of `in` — Algorithm 1 of the paper. Instructions
// that never execute (or produce no register) have probability 0.
func (m *Model) InstrSDC(in *ir.Instr) float64 {
	if p, ok := m.sdcCache[in]; ok {
		return p
	}
	m.decompose(in, &m.composed)
	m.sdcCache[in] = m.composed.SDC
	return m.composed.SDC
}

// decompose is the one place Algorithm 1 is composed. It walks fs from
// `in` once and fills ex with the direct output share, each corrupted
// store's contribution, each flipped branch's capped effect, the crash
// share and the capped headline SDC, reusing ex's slices. The headline
// accumulates the direct share, then each store's bands and then each
// branch, in walk order.
func (m *Model) decompose(in *ir.Instr, ex *Explanation) {
	*ex = Explanation{Instr: in, Stores: ex.Stores[:0], Branches: ex.Branches[:0]}
	if !in.HasResult() || m.prof.ExecCount[in] == 0 {
		return
	}
	e := m.walkFrom(in, walkUniform)
	ex.Direct, ex.Crash = e.output, e.crash
	p := e.output

	// Chains ending at stores (Algorithm 1 line 9).
	for _, se := range e.stores {
		sc := StoreContribution{Store: m.g.instrs[se.node], CorruptProb: se.p.total()}
		if m.cfg.EnableFM {
			for band := 0; band < nClasses; band++ {
				sc.bands[band] = se.p[band] * m.memOut(sc.Store, band)
				p += sc.bands[band]
			}
			sc.Contribution = sc.bands.total()
			if sc.CorruptProb > 0 {
				sc.MemToOutput = sc.Contribution / sc.CorruptProb
			}
		} else {
			// Without fm, a corrupted store is assumed to be an SDC.
			sc.Contribution, sc.MemToOutput = sc.CorruptProb, 1
			p += sc.Contribution
		}
		ex.Stores = append(ex.Stores, sc)
	}

	// Chains ending at flipped branches (Algorithm 1 lines 3-7). One
	// flipped branch is a single divergence event: its store and register
	// effects overlap heavily, so the per-branch effect probability is
	// capped at 1 before weighting by the flip probability. Without fc a
	// flipped branch is listed with no effect.
	for _, be := range e.branches {
		bc := BranchContribution{Branch: m.g.instrs[be.node], FlipProb: be.p}
		if m.cfg.EnableFC {
			eff := m.fcEffectsOf(bc.Branch)
			bc.Stores, bc.Regs = len(eff.stores), len(eff.regs)
			for _, sc := range eff.stores {
				if m.cfg.EnableFM {
					// Divergence-corrupted stores carry whole wrong
					// values: high band.
					bc.EffectProb += sc.Prob * m.memOut(sc.Store, classReplaced)
				} else {
					bc.EffectProb += sc.Prob
				}
			}
			for _, rc := range eff.regs {
				bc.EffectProb += rc.Prob * m.regSDC(rc.Def)
			}
			bc.EffectProb = min(bc.EffectProb, 1)
			bc.Contribution = bc.FlipProb * bc.EffectProb
			p += bc.Contribution
		}
		ex.Branches = append(ex.Branches, bc)
	}

	// Maximum propagation probability is 1 (Algorithm 1 line 6), and
	// crash probability competes with SDC: a fault cannot both crash and
	// silently corrupt.
	ex.SDC = max(min(p, 1, 1-e.crash), 0)
}

// InstrCrash estimates the crash probability of a fault activated at `in`
// (used by the ePVF baseline).
func (m *Model) InstrCrash(in *ir.Instr) float64 {
	if !in.HasResult() || m.prof.ExecCount[in] == 0 {
		return 0
	}
	return m.walkFrom(in, walkUniform).crash
}

// Overall is the program-level prediction.
type Overall struct {
	// SDC is the predicted overall SDC probability: the expected InstrSDC
	// over the fault-activation distribution (dynamic register writes).
	SDC float64
	// Sampled is the number of sampled dynamic instructions (0 = exact).
	Sampled int
}

// zeroSeed replaces seed 0 in OverallSDC's sampling stream, whose
// xorshift state must be nonzero.
const zeroSeed = 0xA3EC647659359ACD

// OverallSDC predicts the program's overall SDC probability. With
// samples <= 0 the exact execution-count-weighted expectation over all
// instructions is returned; otherwise `samples` dynamic instruction
// instances are drawn (deterministically from seed), mirroring the
// paper's 3000-sample methodology (§IV-A, §V-B1).
func (m *Model) OverallSDC(samples int, seed uint64) Overall {
	if samples <= 0 {
		return Overall{SDC: m.Expectation(m.InstrSDC)}
	}
	targets, total := m.activations()
	if total == 0 {
		return Overall{}
	}
	cum := make([]uint64, len(targets))
	running := uint64(0)
	for i, t := range targets {
		running += t.count
		cum[i] = running
	}
	if seed == 0 {
		seed = zeroSeed
	}
	r := hashutil.NewStream(seed)
	sum := 0.0
	for i := 0; i < samples; i++ {
		// Next() % total, not the unbiased Stream.Intn: sampled
		// predictions are pinned, so the draw stays as recorded.
		k := 1 + r.Next()%total
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < k {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		sum += m.InstrSDC(targets[lo].in)
	}
	return Overall{SDC: sum / float64(samples), Sampled: samples}
}

// Expectation is the exact expectation of a per-instruction prediction
// over the fault-activation distribution: Σ (count/total)·f(in) over the
// executed result instructions in module order, 0 if none executed.
func (m *Model) Expectation(f func(in *ir.Instr) float64) float64 {
	targets, total := m.activations()
	sum := 0.0
	for _, t := range targets {
		sum += float64(t.count) / float64(total) * f(t.in)
	}
	return sum
}

// activation is one fault-activation target and its execution count.
type activation struct {
	in    *ir.Instr
	count uint64
}

// activations lists the executed result instructions in module order and
// their summed execution count.
func (m *Model) activations() ([]activation, uint64) {
	var (
		targets []activation
		total   uint64
	)
	m.prof.Module.Instrs(func(in *ir.Instr) {
		if in.HasResult() {
			if c := m.prof.ExecCount[in]; c > 0 {
				targets = append(targets, activation{in, c})
				total += c
			}
		}
	})
	return targets, total
}

// FMIterations reports how many fixed-point sweeps the memory sub-model
// needed (diagnostic; exercised by the ablation benchmarks).
func (m *Model) FMIterations() int {
	m.solveMemory()
	return m.fmIterations
}

// String describes the configured variant.
func (m *Model) String() string {
	switch {
	case m.cfg.EnableFC && m.cfg.EnableFM:
		return "trident(fs+fc+fm)"
	case m.cfg.EnableFC:
		return "fs+fc"
	default:
		return "fs"
	}
}
