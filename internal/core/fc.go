package core

import (
	"trident/internal/analysis"
	"trident/internal/ir"
)

// StoreCorruption is one entry of the fc result list: if the branch is
// flipped, Store's dynamic execution is corrupted (wrongly executed or
// wrongly skipped) with probability Prob — the <Ic, pc> pairs of
// Algorithm 1.
type StoreCorruption struct {
	Store *ir.Instr
	Prob  float64
}

// RegCorruption is a register-level effect of a flipped branch: the
// live-out value of Def (a loop-carried or join phi) is corrupted with
// probability Prob. The paper's fc tracks only stores; this extension
// covers programs whose divergence-corrupted state reaches the output
// through registers (e.g. a loop accumulator printed after the loop),
// which otherwise would be invisible to the model.
type RegCorruption struct {
	Def  *ir.Instr
	Prob float64
}

// fcEffects bundles everything a flipped branch corrupts.
type fcEffects struct {
	stores []StoreCorruption
	regs   []RegCorruption
}

// fcEffectsOf is the control-flow sub-model (paper §IV-D): given a
// corrupted conditional branch, it determines which stores become
// corrupted and with what probability, plus the register extension's
// corrupted live-outs.
//
// The branch is classified as loop-terminating (LT) or not (NLT) from the
// natural-loop structure:
//
//   - NLT (Eq. 1): Pc = Pe/Pd. Propagating one unit of probability mass
//     down each successor edge separately (back edges removed) gives, for
//     a store reached with mass mT from the true edge and mF from the
//     false edge, Pc = |mT − mF|: the probability the store's execution
//     differs between the two directions. Stores reachable from exactly
//     one side get exactly the paper's Pe/Pd; stores past the join get 0.
//     Join phis whose arms are reached differently from the two sides
//     select the wrong arm when the branch flips (register effect).
//
//   - LT (Eq. 2): Pc = Pb·Pe, with Pb the probability of the
//     loop-continuing direction and Pe the in-iteration execution
//     probability of each store in the loop body, measured from the
//     continuing successor. The exit-direction term is dropped, as in the
//     paper (loop branches are heavily biased). A flipped LT branch also
//     shifts the iteration boundary, so the loop's header phis carry
//     corrupted live-out values (register effect).
func (m *Model) fcEffectsOf(br *ir.Instr) *fcEffects {
	if cached, ok := m.fcCache[br]; ok {
		return cached
	}
	eff := &fcEffects{}
	m.fcCache[br] = eff

	if br.Op != ir.OpCondBr {
		return eff
	}
	blk := br.Block
	fn := blk.Fn
	cfg := m.cfgOf(fn)
	if !cfg.Reachable(blk) {
		return eff
	}

	lt, contIdx := cfg.IsLoopTerminating(blk)
	if lt {
		loop := cfg.LoopOf(blk)
		pb := m.prof.EdgeProb(blk, contIdx)
		mass := analysis.ReachProbabilities(cfg, br.Targets[contIdx], m.prof.EdgeProb)
		fn.Instrs(func(in *ir.Instr) {
			if in.Op != ir.OpStore || !loop.Contains(in.Block) {
				return
			}
			if pc := pb * mass[in.Block]; pc > 0 {
				eff.stores = append(eff.stores, StoreCorruption{Store: in, Prob: pc})
			}
		})
		// The flipped iteration boundary corrupts loop-carried state.
		for _, in := range loop.Header.Instrs {
			if in.Op == ir.OpPhi {
				eff.regs = append(eff.regs, RegCorruption{Def: in, Prob: 1})
			}
		}
		return eff
	}

	massT := analysis.ReachProbabilities(cfg, br.Targets[0], m.prof.EdgeProb)
	massF := analysis.ReachProbabilities(cfg, br.Targets[1], m.prof.EdgeProb)
	diffAt := func(b *ir.Block) float64 {
		d := massT[b] - massF[b]
		if d < 0 {
			return -d
		}
		return d
	}
	fn.Instrs(func(in *ir.Instr) {
		switch in.Op {
		case ir.OpStore:
			if d := diffAt(in.Block); d > 1e-12 {
				eff.stores = append(eff.stores, StoreCorruption{Store: in, Prob: d})
			}
		case ir.OpPhi:
			// A join phi selects the wrong arm when the branch redirects
			// control: affected when the phi itself executes on both
			// sides but an incoming edge's frequency differs.
			if massT[in.Block] < 1e-12 || massF[in.Block] < 1e-12 {
				return
			}
			maxArm := 0.0
			for _, ab := range in.PhiBlocks {
				if d := diffAt(ab); d > maxArm {
					maxArm = d
				}
			}
			if maxArm > 1e-12 {
				eff.regs = append(eff.regs, RegCorruption{Def: in, Prob: maxArm})
			}
		}
	})
	return eff
}
