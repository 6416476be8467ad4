package core

import (
	"fmt"
	"sort"
	"strings"

	"trident/internal/ir"
)

// StoreContribution is one memory-level path of an explanation.
type StoreContribution struct {
	// Store is the corrupted store instruction.
	Store *ir.Instr
	// CorruptProb is the probability the stored value is corrupted
	// (summed over corruption classes).
	CorruptProb float64
	// MemToOutput is the memory sub-model's class-weighted probability
	// that the corruption reaches output.
	MemToOutput float64
	// Contribution is the path's share of the SDC probability.
	Contribution float64
}

// BranchContribution is one control-flow path of an explanation.
type BranchContribution struct {
	// Branch is the flipped conditional branch.
	Branch *ir.Instr
	// FlipProb is the probability the corruption flips it.
	FlipProb float64
	// Stores and Regs count the divergence effects behind the branch.
	Stores, Regs int
	// EffectProb is the capped probability the divergence corrupts output.
	EffectProb float64
	// Contribution is the path's share of the SDC probability.
	Contribution float64
}

// Explanation decomposes one instruction's predicted SDC probability into
// its propagation paths — the model's answer to "why is this instruction
// dangerous?", which is what a developer hardening a program acts on.
type Explanation struct {
	// Instr is the explained instruction.
	Instr *ir.Instr
	// Direct is the probability of reaching output through registers only.
	Direct float64
	// Stores are the memory-level paths, largest contribution first.
	Stores []StoreContribution
	// Branches are the control-flow paths, largest contribution first.
	Branches []BranchContribution
	// Crash is the competing crash probability.
	Crash float64
	// SDC is the final (capped) prediction, equal to InstrSDC.
	SDC float64
}

// Explain decomposes the SDC prediction of `in`.
func (m *Model) Explain(in *ir.Instr) *Explanation {
	ex := &Explanation{Instr: in, SDC: m.InstrSDC(in)}
	if !in.HasResult() || m.prof.ExecCount[in] == 0 {
		return ex
	}
	e := m.walkFrom(in, walkUniform)
	ex.Direct = e.output
	ex.Crash = e.crash

	for _, se := range e.stores {
		s := m.g.instrs[se.node]
		sc := StoreContribution{Store: s, CorruptProb: se.p.total()}
		if m.cfg.EnableFM {
			for band := 0; band < nClasses; band++ {
				sc.Contribution += se.p[band] * m.memOut(s, band)
			}
			if sc.CorruptProb > 0 {
				sc.MemToOutput = sc.Contribution / sc.CorruptProb
			}
		} else {
			sc.Contribution = sc.CorruptProb
			sc.MemToOutput = 1
		}
		ex.Stores = append(ex.Stores, sc)
	}
	sort.Slice(ex.Stores, func(i, j int) bool {
		return ex.Stores[i].Contribution > ex.Stores[j].Contribution
	})

	if m.cfg.EnableFC {
		for _, be := range e.branches {
			br, pb := m.g.instrs[be.node], be.p
			eff := m.fcEffectsOf(br)
			bc := BranchContribution{
				Branch:   br,
				FlipProb: pb,
				Stores:   len(eff.stores),
				Regs:     len(eff.regs),
			}
			for _, sc := range eff.stores {
				if m.cfg.EnableFM {
					bc.EffectProb += sc.Prob * m.memOut(sc.Store, classReplaced)
				} else {
					bc.EffectProb += sc.Prob
				}
			}
			for _, rc := range eff.regs {
				bc.EffectProb += rc.Prob * m.regSDC(rc.Def)
			}
			if bc.EffectProb > 1 {
				bc.EffectProb = 1
			}
			bc.Contribution = pb * bc.EffectProb
			ex.Branches = append(ex.Branches, bc)
		}
		sort.Slice(ex.Branches, func(i, j int) bool {
			return ex.Branches[i].Contribution > ex.Branches[j].Contribution
		})
	}
	return ex
}

// String renders the explanation for terminal display.
func (ex *Explanation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s at %s: SDC %.2f%%, crash %.2f%%\n",
		ir.FormatInstr(ex.Instr), ex.Instr.Pos(), ex.SDC*100, ex.Crash*100)
	if ex.Direct > 0 {
		fmt.Fprintf(&sb, "  direct to output:                         %6.2f%%\n", ex.Direct*100)
	}
	for _, sc := range ex.Stores {
		fmt.Fprintf(&sb, "  via %-24s corrupt %5.1f%% x mem %5.1f%% = %6.2f%%\n",
			sc.Store.Pos(), sc.CorruptProb*100, sc.MemToOutput*100, sc.Contribution*100)
	}
	for _, bc := range ex.Branches {
		fmt.Fprintf(&sb, "  via flipped %-16s flip %5.1f%% x effect %5.1f%% = %6.2f%% (%d stores, %d regs)\n",
			bc.Branch.Pos(), bc.FlipProb*100, bc.EffectProb*100, bc.Contribution*100,
			bc.Stores, bc.Regs)
	}
	return sb.String()
}
