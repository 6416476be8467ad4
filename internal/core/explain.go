package core

import (
	"fmt"
	"slices"
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
	// bands are Contribution's per-corruption-class shares with fm (zero
	// without it), in the order the headline adds them.
	bands bandPair
}

// BranchContribution is one control-flow path of an explanation.
type BranchContribution struct {
	// Branch is the flipped conditional branch.
	Branch *ir.Instr
	// FlipProb is the probability the corruption flips it.
	FlipProb float64
	// Stores and Regs count the divergence effects behind the branch.
	Stores, Regs int
	// EffectProb is the capped probability the divergence corrupts
	// output; 0 in a variant without fc.
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
	// Stores are the memory-level paths, in walk (instruction) order.
	Stores []StoreContribution
	// Branches are the control-flow paths, in walk (instruction) order.
	// Every flipped branch is listed; without fc its effect is 0.
	Branches []BranchContribution
	// Crash is the competing crash probability.
	Crash float64
	// SDC is the final (capped) prediction, equal to InstrSDC.
	SDC float64
}

// Explain decomposes the SDC prediction of `in`.
func (m *Model) Explain(in *ir.Instr) *Explanation {
	ex := &Explanation{}
	m.decompose(in, ex)
	return ex
}

// String renders the explanation for terminal display, each kind of path
// largest contribution first.
func (ex *Explanation) String() string {
	stores := slices.Clone(ex.Stores)
	sort.Slice(stores, func(i, j int) bool { return stores[i].Contribution > stores[j].Contribution })
	branches := slices.Clone(ex.Branches)
	sort.Slice(branches, func(i, j int) bool { return branches[i].Contribution > branches[j].Contribution })

	var sb strings.Builder
	fmt.Fprintf(&sb, "%s at %s: SDC %.2f%%, crash %.2f%%\n",
		ir.FormatInstr(ex.Instr), ex.Instr.Pos(), ex.SDC*100, ex.Crash*100)
	if ex.Direct > 0 {
		fmt.Fprintf(&sb, "  direct to output:                         %6.2f%%\n", ex.Direct*100)
	}
	for _, sc := range stores {
		fmt.Fprintf(&sb, "  via %-24s corrupt %5.1f%% x mem %5.1f%% = %6.2f%%\n",
			sc.Store.Pos(), sc.CorruptProb*100, sc.MemToOutput*100, sc.Contribution*100)
	}
	for _, bc := range branches {
		fmt.Fprintf(&sb, "  via flipped %-16s flip %5.1f%% x effect %5.1f%% = %6.2f%% (%d stores, %d regs)\n",
			bc.Branch.Pos(), bc.FlipProb*100, bc.EffectProb*100, bc.Contribution*100,
			bc.Stores, bc.Regs)
	}
	return sb.String()
}
