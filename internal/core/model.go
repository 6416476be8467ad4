package core

import (
	"trident/internal/analysis"
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
	// OutputFilter restricts which Print instructions count as program
	// output (paper §IV-A input 3). Nil means all prints count.
	OutputFilter func(*ir.Instr) bool

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

// isOutput reports whether a Print counts as program output.
func (m *Model) isOutput(in *ir.Instr) bool {
	if m.cfg.OutputFilter == nil {
		return true
	}
	return m.cfg.OutputFilter(in)
}

// InstrSDC predicts the SDC probability of a fault activated in the
// destination register of `in` — Algorithm 1 of the paper. Instructions
// that never execute (or produce no register) have probability 0.
func (m *Model) InstrSDC(in *ir.Instr) float64 {
	if p, ok := m.sdcCache[in]; ok {
		return p
	}
	p := m.instrSDC(in)
	m.sdcCache[in] = p
	return p
}

func (m *Model) instrSDC(in *ir.Instr) float64 {
	if !in.HasResult() || m.prof.ExecCount[in] == 0 {
		return 0
	}
	e := m.walkFrom(in, walkUniform)

	// Direct propagation to output.
	p := e.output

	// Chains ending at stores (Algorithm 1 line 9).
	for _, se := range e.stores {
		if m.cfg.EnableFM {
			for band := 0; band < nClasses; band++ {
				p += se.p[band] * m.memOut(m.g.instrs[se.node], band)
			}
		} else {
			// Without fm, a corrupted store is assumed to be an SDC.
			p += se.p.total()
		}
	}

	// Chains ending at flipped branches (Algorithm 1 lines 3-7). One
	// flipped branch is a single divergence event: its store and register
	// effects overlap heavily, so the per-branch effect probability is
	// capped at 1 before weighting by the flip probability.
	if m.cfg.EnableFC {
		for _, be := range e.branches {
			pb := be.p
			eff := m.fcEffectsOf(m.g.instrs[be.node])
			effectP := 0.0
			for _, sc := range eff.stores {
				if m.cfg.EnableFM {
					// Divergence-corrupted stores carry whole wrong
					// values: high band.
					effectP += sc.Prob * m.memOut(sc.Store, classReplaced)
				} else {
					effectP += sc.Prob
				}
			}
			for _, rc := range eff.regs {
				effectP += rc.Prob * m.regSDC(rc.Def)
			}
			if effectP > 1 {
				effectP = 1
			}
			p += pb * effectP
		}
	}

	// Maximum propagation probability is 1 (Algorithm 1 line 6), and
	// crash probability competes with SDC: a fault cannot both crash and
	// silently corrupt.
	if p > 1 {
		p = 1
	}
	if avail := 1 - e.crash; p > avail {
		p = avail
	}
	if p < 0 {
		p = 0
	}
	return p
}

// TerminalMass exposes the fs terminal aggregates of one instruction; the
// PVF/ePVF baselines are defined in terms of these.
type TerminalMass struct {
	// Output is the probability of reaching program output.
	Output float64
	// Stores is the summed probability of corrupting stored values.
	Stores float64
	// Branches is the summed probability of flipping branches.
	Branches float64
	// Crash is the estimated trap probability.
	Crash float64
}

// TerminalMass returns the fs terminal aggregates for `in`.
func (m *Model) TerminalMass(in *ir.Instr) TerminalMass {
	if !in.HasResult() || m.prof.ExecCount[in] == 0 {
		return TerminalMass{}
	}
	e := m.walkFrom(in, walkUniform)
	tm := TerminalMass{Output: e.output, Crash: e.crash}
	for _, se := range e.stores {
		tm.Stores += se.p.total()
	}
	for _, be := range e.branches {
		tm.Branches += be.p
	}
	return tm
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

// OverallSDC predicts the program's overall SDC probability. With
// samples <= 0 the exact execution-count-weighted expectation over all
// instructions is returned; otherwise `samples` dynamic instruction
// instances are drawn (deterministically from seed), mirroring the
// paper's 3000-sample methodology (§IV-A, §V-B1).
func (m *Model) OverallSDC(samples int, seed uint64) Overall {
	type wi struct {
		in    *ir.Instr
		count uint64
	}
	var (
		targets []wi
		total   uint64
	)
	m.prof.Module.Instrs(func(in *ir.Instr) {
		if in.HasResult() {
			if c := m.prof.ExecCount[in]; c > 0 {
				targets = append(targets, wi{in, c})
				total += c
			}
		}
	})
	if total == 0 {
		return Overall{}
	}

	if samples <= 0 {
		sum := 0.0
		for _, t := range targets {
			sum += float64(t.count) / float64(total) * m.InstrSDC(t.in)
		}
		return Overall{SDC: sum}
	}

	cum := make([]uint64, len(targets))
	running := uint64(0)
	for i, t := range targets {
		running += t.count
		cum[i] = running
	}
	r := newSampleRNG(seed)
	sum := 0.0
	for i := 0; i < samples; i++ {
		k := 1 + r.intn(total)
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

// PerInstrSDC returns predicted SDC probabilities for the given targets.
func (m *Model) PerInstrSDC(targets []*ir.Instr) map[*ir.Instr]float64 {
	out := make(map[*ir.Instr]float64, len(targets))
	for _, in := range targets {
		out[in] = m.InstrSDC(in)
	}
	return out
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
