package interp

import "trident/internal/ir"

// EvalBinary computes a two-operand operation on bit patterns of type t.
// ok is false for integer division/remainder by zero. It is exported for
// the TRIDENT fs sub-model, which re-executes instructions on profiled
// operand samples with single bits flipped to measure masking empirically.
func EvalBinary(op ir.Opcode, t ir.Type, lhs, rhs uint64) (bits uint64, ok bool) {
	return evalBinary(op, t, lhs, rhs)
}

// EvalCmp computes a comparison on bit patterns of type t, yielding 0 or 1.
func EvalCmp(pred ir.Predicate, t ir.Type, lhs, rhs uint64) uint64 {
	return evalCmp(pred, t, lhs, rhs)
}

// EvalIntrinsic evaluates a built-in math routine on float arguments.
func EvalIntrinsic(kind ir.Intrinsic, args []float64) float64 {
	return evalIntrinsic(kind, args)
}
