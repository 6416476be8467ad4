// Package bitlive implements a static bit-level liveness analysis over
// internal/ir — the BEC-style pruning pass (Ko & Burgstaller, PAPERS.md;
// DESIGN.md §5i, ANALYSIS.md): it walks each function backward from the
// observable sinks (stores, prints, branches, returns, detector checks)
// and classifies every (instruction, bit) pair of a result register as
// possibly-live or provably-masked. A bit is provably masked when no
// dataflow path can carry its corruption to program output, a trap, a
// hang, or a detector — so flipping it is guaranteed Benign, and
// fault-injection campaigns (internal/fault, Options.PruneBits) can skip
// executing such trials while recording their deterministic outcome.
//
// The mask sources are exactly the ones the instruction semantics in
// internal/interp justify: truncation (Trunc, register writes, narrow
// store elements), zero/sign-extension, comparisons against constants
// (only the bits that can move the result across the constant matter —
// a signed `v < 0` keeps just the sign bit alive), shift and bitwise
// mask constants (And/Or/Shl/LShr/AShr with immediate operands map
// demanded bits exactly; variable shift amounts reduce modulo the
// register width, so only the low log2(width) amount bits are live),
// and dead high ranges (Gep indices scaled by a power-of-two element
// stride lose their top bits to the 2^64 wraparound; srem/urem by a
// power of two depend only on the low bits and the sign).
//
// Everything the analysis cannot prove is conservatively live: float
// arithmetic, intrinsics and FP casts propagate full-width demand (a
// 1-ulp flip can cross a decimal rounding boundary, so even reduced-
// precision Print output is not soundly prunable), addresses are fully
// live (an out-of-bounds trap is observable), and division by a
// non-constant keeps the divisor fully live (the zero check traps).
// Soundness — every bit classified masked really yields Benign under
// injection — is enforced by the exhaustive-injection oracle in
// internal/crosscheck (PruneSound) over all paper kernels and by the
// FuzzBitliveSound target over random irgen programs.
package bitlive

import (
	"fmt"
	"math/bits"
	"strings"

	"trident/internal/hashutil"
	"trident/internal/ir"
)

// Version names the analysis and its revision. It is folded into every
// mask-table hash (ModuleHash), so result-cache entries and checkpoints
// keyed on pruned campaigns stop matching whenever the transfer
// functions change — the same contract fault.ModelVersion gives the
// injection semantics.
const Version = "bitlive/v1"

// Report holds the analysis result for one module: a live-bit mask per
// result-defining instruction. Bits outside the mask are provably
// masked. A Report is immutable after Analyze and safe for concurrent
// readers.
type Report struct {
	live map[*ir.Instr]uint64
}

// Analyze runs the backward bit-liveness fixpoint over every function
// of m and returns the per-instruction live masks. The analysis is a
// whole-module pass: liveness flows interprocedurally through call
// arguments (formal-parameter demand) and return values (the union of
// every call site's result demand; the entry function's own return
// value is discarded by the interpreter and contributes nothing).
func Analyze(m *ir.Module) *Report {
	a := &analyzer{
		live:      make(map[*ir.Instr]uint64),
		paramLive: make(map[*ir.Param]uint64),
		retLive:   make(map[*ir.Func]uint64),
	}
	// Iterate to a fixpoint. Masks only grow and every transfer function
	// is monotone, so the sweep count is bounded by the longest demand
	// chain; reverse program order makes the common case converge in two
	// or three sweeps.
	for {
		a.changed = false
		for _, fn := range m.Funcs {
			for bi := len(fn.Blocks) - 1; bi >= 0; bi-- {
				blk := fn.Blocks[bi]
				for ii := len(blk.Instrs) - 1; ii >= 0; ii-- {
					a.visit(blk.Instrs[ii])
				}
			}
		}
		if !a.changed {
			break
		}
	}
	return &Report{live: a.live}
}

// Live returns the live-bit mask of in's result register, restricted to
// the result type's width. Instructions without a result return 0.
func (r *Report) Live(in *ir.Instr) uint64 {
	if !in.HasResult() {
		return 0
	}
	return r.live[in] & widthMask(in.Type.Bits())
}

// Masked returns the provably-masked bits of in's result register: the
// complement of Live within the result width.
func (r *Report) Masked(in *ir.Instr) uint64 {
	if !in.HasResult() {
		return 0
	}
	return widthMask(in.Type.Bits()) &^ r.live[in]
}

// MaskedBit reports whether flipping the given bit of in's result is
// provably masked (guaranteed Benign).
func (r *Report) MaskedBit(in *ir.Instr, bit int) bool {
	return r.Masked(in)&(1<<uint(bit)) != 0
}

// funcHash returns the content address of one function's mask table:
// the hash of Version plus every (instruction ID, live mask) pair in ID
// order.
func (r *Report) funcHash(fn *ir.Func) uint64 {
	var sb strings.Builder
	sb.WriteString(Version)
	sb.WriteByte('|')
	sb.WriteString(fn.Name)
	fn.Instrs(func(in *ir.Instr) {
		if in.HasResult() {
			fmt.Fprintf(&sb, "|%d:%x", in.ID, r.Live(in))
		}
	})
	return hashutil.String(sb.String())
}

// ModuleHash folds funcHash over every function of m in definition
// order: checkpoint headers (whose hash names the server's result-cache
// entries) key pruned campaigns on it, so a change to the analysis (or to the module, which
// reassigns masks) can never replay results computed under different
// pruning decisions.
func (r *Report) ModuleHash(m *ir.Module) uint64 {
	var sb strings.Builder
	for _, fn := range m.Funcs {
		fmt.Fprintf(&sb, "%x|", r.funcHash(fn))
	}
	return hashutil.String(sb.String())
}

// Stats summarizes the static pruning surface of a set of instructions:
// how many result bits exist and how many are provably masked.
type Stats struct {
	// Instrs is the number of result-defining instructions surveyed.
	Instrs int
	// Bits is the total result-register bit count across them.
	Bits int
	// MaskedBits is how many of those bits are provably masked.
	MaskedBits int
}

// Fraction returns the masked share of the surveyed bits.
func (s Stats) Fraction() float64 {
	if s.Bits == 0 {
		return 0
	}
	return float64(s.MaskedBits) / float64(s.Bits)
}

// ModuleStats surveys every result-defining instruction of m.
func (r *Report) ModuleStats(m *ir.Module) Stats {
	var s Stats
	m.Instrs(func(in *ir.Instr) {
		if in.HasResult() {
			s.Instrs++
			s.Bits += in.Type.Bits()
			s.MaskedBits += bits.OnesCount64(r.Masked(in))
		}
	})
	return s
}

// analyzer carries the fixpoint state: live masks per instruction
// result, per formal parameter, and per function return value.
type analyzer struct {
	live      map[*ir.Instr]uint64
	paramLive map[*ir.Param]uint64
	retLive   map[*ir.Func]uint64
	changed   bool
}

const all64 = ^uint64(0)

// widthMask returns the mask covering the low w bits.
func widthMask(w int) uint64 {
	if w >= 64 {
		return all64
	}
	return (1 << uint(w)) - 1
}

// down returns the downward closure of L: bit j is set iff L has any
// bit at or above j. It is the demand an addition's carry chain (or any
// low-to-high propagation) imposes on its operands.
func down(L uint64) uint64 {
	if L == 0 {
		return 0
	}
	n := bits.Len64(L)
	if n >= 64 {
		return all64
	}
	return (1 << uint(n)) - 1
}

// upFrom returns the upward closure of L within width w: bit j is set
// iff L has any bit at or below j — the demand of a variable
// right-shift, where an operand bit can only move down.
func upFrom(L uint64, w int) uint64 {
	if L == 0 {
		return 0
	}
	return widthMask(w) &^ ((1 << uint(bits.TrailingZeros64(L))) - 1)
}

// sel gates a demand on the result being live at all: a dead result of
// a non-trapping instruction demands nothing.
func sel(L, d uint64) uint64 {
	if L == 0 {
		return 0
	}
	return d
}

// demand accumulates demanded bits into the defining value's live mask.
// Constants and globals absorb demand (they are not injection targets);
// instruction results and formal parameters record it, truncated to the
// value's register width.
func (a *analyzer) demand(v ir.Value, d uint64) {
	if d == 0 {
		return
	}
	switch x := v.(type) {
	case *ir.Instr:
		d &= widthMask(x.Type.Bits())
		if old := a.live[x]; old|d != old {
			a.live[x] = old | d
			a.changed = true
		}
	case *ir.Param:
		d &= widthMask(x.Type.Bits())
		if old := a.paramLive[x]; old|d != old {
			a.paramLive[x] = old | d
			a.changed = true
		}
	}
}

// constBits extracts a constant operand's truncated bit pattern.
func constBits(v ir.Value) (uint64, bool) {
	if c, ok := v.(*ir.Const); ok {
		return ir.TruncateToWidth(c.Bits, c.Type.Bits()), true
	}
	return 0, false
}

// visit applies one instruction's backward transfer function: from the
// liveness of its own result (or its sink semantics) it derives the
// demand on each operand. Every rule is justified by the corresponding
// evaluation in internal/interp — see DESIGN.md §5i for the
// per-channel soundness argument.
func (a *analyzer) visit(u *ir.Instr) {
	switch u.Op {
	case ir.OpStore:
		// The stored value escapes to memory at the element width; the
		// address is fully live (an out-of-bounds address traps).
		a.demand(u.Operands[0], widthMask(u.Elem.Bits()))
		a.demand(u.Operands[1], all64)
		return
	case ir.OpLoad:
		// Loaded bits come from memory, which pruned corruption can never
		// reach (store values are demanded at full element width); only
		// the address flows backward.
		a.demand(u.Operands[0], all64)
		return
	case ir.OpPrint:
		// Output renders the operand at full width. FormatG2 rounding is
		// deliberately NOT modeled: a 1-ulp mantissa flip can cross a
		// decimal rounding boundary, so reduced-precision output still
		// demands every bit.
		a.demand(u.Operands[0], widthMask(u.Operands[0].ValueType().Bits()))
		return
	case ir.OpCheck:
		// The detector compares raw registers; any differing bit trips it
		// (Detected, observable).
		a.demand(u.Operands[0], widthMask(u.Operands[0].ValueType().Bits()))
		a.demand(u.Operands[1], widthMask(u.Operands[1].ValueType().Bits()))
		return
	case ir.OpCondBr:
		// The interpreter branches on cond&1.
		a.demand(u.Operands[0], 1)
		return
	case ir.OpBr:
		return
	case ir.OpRet:
		// A return value is only as live as the call sites that consume
		// it. The entry function's return value is discarded by the
		// interpreter, so with no call sites the demand stays zero.
		if len(u.Operands) == 1 {
			a.demand(u.Operands[0], a.retLive[u.Block.Fn])
		}
		return
	case ir.OpCall:
		// The call's own result liveness feeds the callee's return value;
		// each argument carries the callee's accumulated formal-parameter
		// demand. An unknown callee would be conservatively full, but the
		// verifier guarantees Callee is resolved.
		if u.Callee != nil {
			if u.HasResult() {
				if L := a.live[u]; L != 0 {
					if old := a.retLive[u.Callee]; old|L != old {
						a.retLive[u.Callee] = old | L
						a.changed = true
					}
				}
			}
			for i, arg := range u.Operands {
				if i < len(u.Callee.Params) {
					a.demand(arg, a.paramLive[u.Callee.Params[i]])
				} else {
					a.demand(arg, all64)
				}
			}
		} else {
			for _, arg := range u.Operands {
				a.demand(arg, all64)
			}
		}
		return
	case ir.OpAlloca:
		return
	}

	// Everything below defines a register and traps at most through an
	// operand the rules keep fully live.
	L := a.live[u] & widthMask(u.Type.Bits())
	switch u.Op {
	case ir.OpPhi:
		for _, v := range u.Operands {
			a.demand(v, L)
		}
	case ir.OpSelect:
		// The interpreter selects on cond&1; the picked value passes
		// through unchanged.
		a.demand(u.Operands[0], sel(L, 1))
		a.demand(u.Operands[1], L)
		a.demand(u.Operands[2], L)
	case ir.OpGep:
		// addr = base + signext(index)*ElemBytes (mod 2^64). With a
		// power-of-two stride 2^s, index bits at or above 64-s multiply
		// off the top of the address and are dead; the sign extension of
		// a narrower index only ever reproduces bits that are themselves
		// in that dead range. The base is an address: fully live.
		if L != 0 {
			a.demand(u.Operands[0], all64)
			s := bits.TrailingZeros64(uint64(u.Elem.Bytes()))
			a.demand(u.Operands[1], widthMask(64-s))
		}
	case ir.OpICmp:
		a.visitICmp(u, L)
	case ir.OpFCmp:
		a.demand(u.Operands[0], sel(L, all64))
		a.demand(u.Operands[1], sel(L, all64))
	case ir.OpTrunc, ir.OpBitcast:
		// Trunc keeps the low result-width bits (high source bits dead);
		// Bitcast maps bits identically.
		a.demand(u.Operands[0], L)
	case ir.OpZExt:
		a.demand(u.Operands[0], L&widthMask(u.Operands[0].ValueType().Bits()))
	case ir.OpSExt:
		srcW := u.Operands[0].ValueType().Bits()
		d := L & widthMask(srcW-1)
		if L>>uint(srcW-1) != 0 {
			// Any demanded bit at or above the source sign position is a
			// copy of the sign bit.
			d |= 1 << uint(srcW-1)
		}
		a.demand(u.Operands[0], d)
	case ir.OpFPTrunc, ir.OpFPExt, ir.OpFPToSI, ir.OpSIToFP:
		// Float conversions are conservatively all-or-nothing; none of
		// them traps (FPToSI clamps), so a dead result kills the demand.
		a.demand(u.Operands[0], sel(L, all64))
	case ir.OpIntrinsic:
		// libm intrinsics never trap; conservative full demand when live.
		for _, arg := range u.Operands {
			a.demand(arg, sel(L, all64))
		}
	default:
		if u.Op.IsBinary() {
			a.visitBinary(u, L)
		} else {
			// Unknown opcode: conservatively demand everything.
			for _, v := range u.Operands {
				a.demand(v, all64)
			}
		}
	}
}

// visitBinary applies the two-operand transfer functions. The exact
// rules for constant operands are where most pruning comes from; a
// variable divisor stays fully live because the zero check traps.
func (a *analyzer) visitBinary(u *ir.Instr, L uint64) {
	w := u.Type.Bits()
	full := widthMask(w)
	lhs, rhs := u.Operands[0], u.Operands[1]
	lc, lok := constBits(lhs)
	rc, rok := constBits(rhs)
	var dl, dr uint64
	switch u.Op {
	case ir.OpAdd, ir.OpSub:
		// Carries (borrows) propagate strictly upward: operand bit j can
		// only disturb result bits >= j.
		dl, dr = down(L), down(L)
	case ir.OpMul:
		// v * 2^t*odd: operand bit j first disturbs result bit j+t.
		d := down(L)
		dl, dr = d, d
		if rok {
			dl = mulConstDemand(d, rc)
		} else if lok {
			dr = mulConstDemand(d, lc)
		}
	case ir.OpUDiv:
		dl, dr = sel(L, full), full
		if rok {
			switch {
			case rc == 0:
				// Divide-by-constant-zero traps unconditionally; a golden
				// run that completed never executed it. Conservative full.
				dl = full
			case rc&(rc-1) == 0:
				// Power of two: exactly a logical right shift.
				dl = (L << uint(bits.TrailingZeros64(rc))) & full
			}
		}
	case ir.OpURem:
		dl, dr = sel(L, full), full
		if rok {
			switch {
			case rc == 0:
				dl = full
			case rc&(rc-1) == 0:
				// v % 2^s == v & (2^s - 1).
				dl = L & (rc - 1)
			}
		}
	case ir.OpSDiv:
		// Signed division rounds toward zero; no simple bit rule even for
		// power-of-two divisors. Constant nonzero divisors cannot trap.
		dl, dr = sel(L, full), full
	case ir.OpSRem:
		dl, dr = sel(L, full), full
		if rok {
			d0 := ir.SignExtend(rc, w)
			abs := uint64(d0)
			if d0 < 0 {
				abs = uint64(-d0)
			}
			switch {
			case d0 == 0:
				dl = full
			case abs == 1:
				// v % ±1 is always 0.
				dl = 0
			case abs&(abs-1) == 0:
				// v % ±2^s (Go truncated semantics) depends only on the low
				// s bits and the sign of v.
				s := bits.TrailingZeros64(abs)
				dl = sel(L, widthMask(s)|1<<uint(w-1))
			}
		}
	case ir.OpAnd:
		dl, dr = L, L
		if rok {
			dl = L & rc
		}
		if lok {
			dr = L & lc
		}
	case ir.OpOr:
		dl, dr = L, L
		if rok {
			dl = L &^ rc
		}
		if lok {
			dr = L &^ lc
		}
	case ir.OpXor:
		dl, dr = L, L
	case ir.OpShl:
		if rok {
			// The interpreter reduces shift amounts modulo the width, so a
			// constant amount of exactly w is the identity shift.
			dl, dr = L>>(uint(rc)%uint(w)), 0
		} else {
			dl, dr = down(L), sel(L, shiftAmountMask(w))
		}
	case ir.OpLShr:
		if rok {
			dl, dr = (L<<(uint(rc)%uint(w)))&full, 0
		} else {
			dl, dr = upFrom(L, w), sel(L, shiftAmountMask(w))
		}
	case ir.OpAShr:
		if rok {
			s := uint(rc) % uint(w)
			dl = (L << s) & full
			if L>>uint(uint(w-1)-s) != 0 {
				// Result bits at or above w-1-s replicate the sign bit.
				dl |= 1 << uint(w-1)
			}
			dr = 0
		} else {
			dl, dr = sel(L, full), sel(L, shiftAmountMask(w))
		}
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		// IEEE arithmetic never traps (±Inf/NaN instead); conservative
		// full demand when the result is live.
		dl, dr = sel(L, full), sel(L, full)
	default:
		dl, dr = all64, all64
	}
	a.demand(lhs, dl)
	a.demand(rhs, dr)
}

// mulConstDemand is the lhs demand of v*c given the result demand d
// (already down-closed): the factor's trailing zeros shift the operand's
// influence up, and multiplying by zero kills it entirely.
func mulConstDemand(d, c uint64) uint64 {
	if c == 0 {
		return 0
	}
	return d >> uint(bits.TrailingZeros64(c))
}

// shiftAmountMask is the live mask of a variable shift-amount operand:
// amounts reduce modulo the width, so only the low log2(w) bits matter
// (none at all for width 1).
func shiftAmountMask(w int) uint64 {
	return widthMask(bits.Len(uint(w)) - 1)
}

// visitICmp handles integer comparisons. Two variable operands are
// fully live; against a constant, only the bits that can carry the
// value across the constant's boundary matter. All the predicate rules
// reduce to one primitive — live bits of `v <u c` are the bits at or
// above ctz(c) — via the complement (uge/ugt), the successor
// (ule ≡ ult c+1), and the sign-bit XOR that maps signed order onto
// unsigned order. Equality keeps every bit (any flip can create or
// destroy a match).
func (a *analyzer) visitICmp(u *ir.Instr, L uint64) {
	lhs, rhs := u.Operands[0], u.Operands[1]
	lc, lok := constBits(lhs)
	rc, rok := constBits(rhs)
	w := lhs.ValueType().Bits()
	if lok == rok {
		// Both constant (nothing to demand) or both variable (full).
		a.demand(lhs, sel(L, all64))
		a.demand(rhs, sel(L, all64))
		return
	}
	pred, c, varSide := u.Pred, rc, lhs
	if lok {
		// c PRED v  ≡  v PRED' c with the order reversed.
		pred, c, varSide = swapPred(u.Pred), lc, rhs
	}
	a.demand(varSide, sel(L, icmpConstLive(pred, c, w)))
}

// swapPred maps PRED to PRED' such that a PRED b ≡ b PRED' a.
func swapPred(p ir.Predicate) ir.Predicate {
	switch p {
	case ir.PredSLT:
		return ir.PredSGT
	case ir.PredSGT:
		return ir.PredSLT
	case ir.PredSLE:
		return ir.PredSGE
	case ir.PredSGE:
		return ir.PredSLE
	case ir.PredULT:
		return ir.PredUGT
	case ir.PredUGT:
		return ir.PredULT
	case ir.PredULE:
		return ir.PredUGE
	case ir.PredUGE:
		return ir.PredULE
	default:
		return p
	}
}

// icmpConstLive returns the live bits of the variable v in `v pred c`
// at width w. The primitive: v <u c compares the values of the bits at
// or above ctz(c) only — flipping a lower bit moves v by less than the
// alignment of c and cannot cross it (bit j of v is dead iff 2^(j+1)
// divides c). Signed predicates reduce to unsigned ones by XORing the
// sign bit into both sides, which is order-preserving.
func icmpConstLive(pred ir.Predicate, c uint64, w int) uint64 {
	full := widthMask(w)
	sign := uint64(1) << uint(w-1)
	ult := func(t uint64) uint64 {
		if t == 0 {
			return 0 // v <u 0 is constantly false
		}
		return full &^ widthMask(bits.TrailingZeros64(t))
	}
	switch pred {
	case ir.PredEQ, ir.PredNE:
		return full
	case ir.PredULT, ir.PredUGE:
		return ult(c)
	case ir.PredULE, ir.PredUGT:
		if c == full {
			return 0 // v <=u max is constantly true
		}
		return ult(c + 1)
	case ir.PredSLT, ir.PredSGE:
		return ult((c ^ sign) & full)
	case ir.PredSLE, ir.PredSGT:
		if c == full>>1 {
			return 0 // v <=s INT_MAX is constantly true
		}
		return ult(((c + 1) ^ sign) & full)
	default:
		return full
	}
}
