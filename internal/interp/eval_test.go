package interp

import (
	"math"
	"testing"
	"testing/quick"

	"trident/internal/ir"
)

func TestEvalBinaryIntegerOps(t *testing.T) {
	tests := []struct {
		op       ir.Opcode
		t        ir.Type
		lhs, rhs int64
		want     int64
		ok       bool
	}{
		{ir.OpAdd, ir.I32, 7, 5, 12, true},
		{ir.OpSub, ir.I32, 7, 9, -2, true},
		{ir.OpMul, ir.I16, 300, 300, 90000 & 0xFFFF, true}, // wraps at 16 bits after truncation
		{ir.OpSDiv, ir.I64, -9, 2, -4, true},
		{ir.OpSRem, ir.I64, -9, 2, -1, true},
		{ir.OpUDiv, ir.I64, 9, 2, 4, true},
		{ir.OpURem, ir.I64, 9, 2, 1, true},
		{ir.OpSDiv, ir.I64, 1, 0, 0, false},
		{ir.OpURem, ir.I64, 1, 0, 0, false},
		{ir.OpAnd, ir.I64, 0b1100, 0b1010, 0b1000, true},
		{ir.OpOr, ir.I64, 0b1100, 0b1010, 0b1110, true},
		{ir.OpXor, ir.I64, 0b1100, 0b1010, 0b0110, true},
	}
	for _, tt := range tests {
		bits, ok := EvalBinary(tt.op, tt.t, ir.ConstInt(tt.t, tt.lhs).Bits, ir.ConstInt(tt.t, tt.rhs).Bits)
		if ok != tt.ok {
			t.Errorf("%s: ok = %v, want %v", tt.op, ok, tt.ok)
			continue
		}
		if !ok {
			continue
		}
		if got := ir.SignExtend(ir.TruncateToWidth(bits, tt.t.Bits()), tt.t.Bits()); got != tt.want {
			t.Errorf("%s(%d, %d) = %d, want %d", tt.op, tt.lhs, tt.rhs, got, tt.want)
		}
	}
}

func TestEvalBinaryMinInt64Division(t *testing.T) {
	minBits := uint64(1) << 63
	negOne := ir.ConstInt(ir.I64, -1).Bits
	bits, ok := EvalBinary(ir.OpSDiv, ir.I64, minBits, negOne)
	if !ok || bits != minBits {
		t.Errorf("MinInt64 / -1 = %#x, %v; want wrap to MinInt64", bits, ok)
	}
	bits, ok = EvalBinary(ir.OpSRem, ir.I64, minBits, negOne)
	if !ok || bits != 0 {
		t.Errorf("MinInt64 %% -1 = %#x, %v; want 0", bits, ok)
	}
}

func TestEvalBinaryShiftsReduceModWidth(t *testing.T) {
	// Shift amounts wrap modulo the width so corrupted shift operands are
	// still defined.
	bits, _ := EvalBinary(ir.OpShl, ir.I32, 1, 33)
	if ir.TruncateToWidth(bits, 32) != 2 {
		t.Errorf("shl by 33 on i32 = %#x, want 2 (mod-width)", bits)
	}
	bits, _ = EvalBinary(ir.OpAShr, ir.I8, ir.ConstInt(ir.I8, -64).Bits, 2)
	if got := ir.SignExtend(ir.TruncateToWidth(bits, 8), 8); got != -16 {
		t.Errorf("ashr(-64, 2) on i8 = %d, want -16", got)
	}
}

func TestEvalBinaryFloatOps(t *testing.T) {
	f := func(op ir.Opcode, a, b float64) float64 {
		bits, ok := EvalBinary(op, ir.F64, ir.FloatToBits(ir.F64, a), ir.FloatToBits(ir.F64, b))
		if !ok {
			t.Fatalf("%s trapped", op)
		}
		return ir.FloatFromBits(ir.F64, bits)
	}
	if f(ir.OpFAdd, 1.5, 2.5) != 4 || f(ir.OpFSub, 1.5, 2.5) != -1 ||
		f(ir.OpFMul, 1.5, 2) != 3 || f(ir.OpFDiv, 3, 2) != 1.5 {
		t.Error("float arithmetic wrong")
	}
	// Float division by zero follows IEEE (no trap).
	if !math.IsInf(f(ir.OpFDiv, 1, 0), 1) {
		t.Error("fdiv by zero should be +Inf")
	}
}

func TestEvalCastMatrix(t *testing.T) {
	if got := evalCast(ir.OpTrunc, ir.I64, ir.I8, 0x1FF); got != 0xFF {
		t.Errorf("trunc = %#x", got)
	}
	if got := evalCast(ir.OpZExt, ir.I8, ir.I64, 0xFF); got != 0xFF {
		t.Errorf("zext = %#x", got)
	}
	if got := evalCast(ir.OpSExt, ir.I8, ir.I64, 0xFF); int64(got) != -1 {
		t.Errorf("sext = %#x", got)
	}
	if v := ir.FloatFromBits(ir.F32, evalCast(ir.OpFPTrunc, ir.F64, ir.F32, ir.FloatToBits(ir.F64, 1.5))); v != 1.5 {
		t.Errorf("fptrunc = %v", v)
	}
	if v := ir.FloatFromBits(ir.F64, evalCast(ir.OpFPExt, ir.F32, ir.F64, ir.FloatToBits(ir.F32, 0.25))); v != 0.25 {
		t.Errorf("fpext = %v", v)
	}
	if got := int64(evalCast(ir.OpFPToSI, ir.F64, ir.I64, ir.FloatToBits(ir.F64, -3.7))); got != -3 {
		t.Errorf("fptosi(-3.7) = %d", got)
	}
	// Saturation and NaN handling.
	if got := int64(evalCast(ir.OpFPToSI, ir.F64, ir.I64, ir.FloatToBits(ir.F64, 1e300))); got != math.MaxInt64 {
		t.Errorf("fptosi(1e300) = %d", got)
	}
	if got := int64(evalCast(ir.OpFPToSI, ir.F64, ir.I64, ir.FloatToBits(ir.F64, -1e300))); got != math.MinInt64 {
		t.Errorf("fptosi(-1e300) = %d", got)
	}
	if got := evalCast(ir.OpFPToSI, ir.F64, ir.I64, ir.FloatToBits(ir.F64, math.NaN())); got != 0 {
		t.Errorf("fptosi(NaN) = %d", got)
	}
	if v := ir.FloatFromBits(ir.F64, evalCast(ir.OpSIToFP, ir.I32, ir.F64, ir.ConstInt(ir.I32, -5).Bits)); v != -5 {
		t.Errorf("sitofp = %v", v)
	}
	if got := evalCast(ir.OpBitcast, ir.I64, ir.F64, 0x3FF0000000000000); got != 0x3FF0000000000000 {
		t.Errorf("bitcast = %#x", got)
	}
}

func TestEvalIntrinsicMatrix(t *testing.T) {
	cases := []struct {
		kind ir.Intrinsic
		args []float64
		want float64
	}{
		{ir.IntrinsicSqrt, []float64{9}, 3},
		{ir.IntrinsicExp, []float64{0}, 1},
		{ir.IntrinsicLog, []float64{1}, 0},
		{ir.IntrinsicSin, []float64{0}, 0},
		{ir.IntrinsicCos, []float64{0}, 1},
		{ir.IntrinsicPow, []float64{2, 10}, 1024},
		{ir.IntrinsicFabs, []float64{-2.5}, 2.5},
		{ir.IntrinsicFloor, []float64{2.9}, 2},
		{ir.IntrinsicFmin, []float64{1, 2}, 1},
		{ir.IntrinsicFmax, []float64{1, 2}, 2},
	}
	for _, c := range cases {
		if got := EvalIntrinsic(c.kind, c.args); got != c.want {
			t.Errorf("%s(%v) = %v, want %v", c.kind, c.args, got, c.want)
		}
	}
	if !math.IsNaN(EvalIntrinsic(ir.Intrinsic(200), []float64{1})) {
		t.Error("unknown intrinsic should be NaN")
	}
}

func TestEvalCmpAgainstGoSemantics(t *testing.T) {
	f := func(a, b int32) bool {
		lhs := ir.ConstInt(ir.I32, int64(a)).Bits
		rhs := ir.ConstInt(ir.I32, int64(b)).Bits
		checks := []struct {
			pred ir.Predicate
			want bool
		}{
			{ir.PredEQ, a == b},
			{ir.PredNE, a != b},
			{ir.PredSLT, a < b},
			{ir.PredSLE, a <= b},
			{ir.PredSGT, a > b},
			{ir.PredSGE, a >= b},
			{ir.PredULT, uint32(a) < uint32(b)},
			{ir.PredULE, uint32(a) <= uint32(b)},
			{ir.PredUGT, uint32(a) > uint32(b)},
			{ir.PredUGE, uint32(a) >= uint32(b)},
		}
		for _, c := range checks {
			got := EvalCmp(c.pred, ir.I32, lhs, rhs) == 1
			if got != c.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvalCmpFloatNaN(t *testing.T) {
	nan := ir.FloatToBits(ir.F64, math.NaN())
	one := ir.FloatToBits(ir.F64, 1)
	// Ordered predicates are false on NaN.
	for _, pred := range []ir.Predicate{ir.PredOEQ, ir.PredONE, ir.PredOLT, ir.PredOLE, ir.PredOGT, ir.PredOGE} {
		if EvalCmp(pred, ir.F64, nan, one) != 0 {
			t.Errorf("%v with NaN should be false", pred)
		}
	}
}
