// Package core implements TRIDENT (paper §IV): the three-level error
// propagation model composed of fs (static-instruction level), fc
// (control-flow level) and fm (memory level), plus the two simpler
// variants the paper evaluates (fs alone, fs+fc). Given a profile of one
// fault-free execution, the model predicts the SDC probability of every
// instruction and of the whole program without fault injection.
// DESIGN.md §3 specifies each sub-model and the refinements beyond the
// paper.
package core

import (
	"trident/internal/interp"
	"trident/internal/ir"
)

// minMaxIdiom recognizes select(icmp(a, b), x, y) where {x, y} == {a, b}:
// the compare-select min/max pattern. armMap[k] is the compare operand
// index mirrored by select arm k+1. The pair is modeled jointly: a
// corruption that loses the comparison is fully masked (e.g. an upward
// bit flip entering a min).
func minMaxIdiom(sel *ir.Instr) (cmp *ir.Instr, armMap [2]int, ok bool) {
	if sel.Op != ir.OpSelect {
		return nil, armMap, false
	}
	cmp, isInstr := sel.Operands[0].(*ir.Instr)
	if !isInstr || !cmp.Op.IsCmp() {
		return nil, armMap, false
	}
	a, b := cmp.Operands[0], cmp.Operands[1]
	x, y := sel.Operands[1], sel.Operands[2]
	switch {
	case x == a && y == b:
		return cmp, [2]int{0, 1}, true
	case x == b && y == a:
		return cmp, [2]int{1, 0}, true
	default:
		return nil, armMap, false
	}
}

// execOp re-executes a two-operand instruction or intrinsic on raw bit
// patterns, treating a trapping division as a distinguishable outcome.
func execOp(in *ir.Instr, t ir.Type, lhs, rhs uint64) uint64 {
	switch {
	case in.Op.IsCmp():
		return interp.EvalCmp(in.Pred, t, lhs, rhs)
	case in.Op == ir.OpIntrinsic:
		args := [2]float64{ir.FloatFromBits(t, lhs)}
		n := 1
		if len(in.Operands) > 1 {
			args[1] = ir.FloatFromBits(in.Operands[1].ValueType(), rhs)
			n = 2
		}
		return ir.FloatToBits(in.Type, interp.EvalIntrinsic(in.Intr, args[:n]))
	default:
		bits, ok := interp.EvalBinary(in.Op, t, lhs, rhs)
		if !ok {
			return ^uint64(0) // trap marker distinct from common results
		}
		return ir.TruncateToWidth(bits, in.Type.Bits())
	}
}
