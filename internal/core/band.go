package core

import (
	"trident/internal/interp"
	"trident/internal/ir"
)

// The walker tracks corruption in magnitude bands: the bit position of the
// highest corrupted bit of a value, bucketed. Band membership decides two
// things that scalar per-op masking models (including the paper's, per its
// §VII-A floating-point discussion) get wrong:
//
//   - chained operations mask the *same* bottom bits, so multiplying
//     independent per-op masking probabilities over-masks long float
//     chains; with banded tracking, rounding only erodes the bottom band
//     while mid-band corruption rides through untouched;
//   - corruption absorbed into low mantissa bits (adding a small corrupted
//     term into a large accumulator) can never show through
//     reduced-precision ("%g") output, which only top-band corruption
//     passes.
const nBands = 2

// bandTop is the output-visible band: sign, exponent, and the mantissa
// bits that survive two-significant-digit printing.
const bandTop = nBands - 1

// classReplaced is the third corruption class: the value is not a
// bit-flipped variant of the correct one but a wholly different (often
// zero) value — the result of control-flow divergence skipping or
// re-executing a producer. Replaced values behave differently from flips:
// a zero left by a skipped store *wins* a min comparison that an upward
// bit flip would lose.
const classReplaced = nBands

// nClasses counts corruption classes: the magnitude bands plus replaced.
const nClasses = nBands + 1

// bandPair carries per-class probabilities (or expected counts).
type bandPair [nClasses]float64

// total returns the summed mass.
func (p bandPair) total() float64 {
	t := 0.0
	for _, v := range p {
		t += v
	}
	return t
}

// bandBounds is the band split of one type: the start bit of each band,
// ascending. Band i covers bits [bounds[i], bounds[i+1]); the last band
// extends to the top bit.
type bandBounds [nBands]int

// bandBoundaries returns the band split of type t. For floats the top band
// is the sign, the exponent and ~7 mantissa bits (two significant decimal
// digits); the bottom band is the rounding-erodable tail.
func bandBoundaries(t ir.Type) bandBounds {
	switch t {
	case ir.F32:
		return bandBounds{0, 16}
	case ir.F64:
		return bandBounds{0, 45}
	default:
		return bandBounds{0, t.Bits() / 2}
	}
}

// of classifies bit position b. Loops over the bits of many values take
// the split once and classify with it.
func (bb bandBounds) of(b int) int {
	for band := nBands - 1; band > 0; band-- {
		if b >= bb[band] {
			return band
		}
	}
	return 0
}

// span returns the bits [lo, hi) of band in a value w bits wide. Loops
// over every bit of a value walk the bands' spans in turn instead of
// classifying each bit.
func (bb bandBounds) span(band, w int) (lo, hi int) {
	lo, hi = bb[band], w
	if band+1 < nBands {
		hi = bb[band+1]
	}
	return lo, hi
}

// bandSplit returns the per-band fraction of bit positions of type t: the
// initial distribution of a uniformly random single-bit flip.
func bandSplit(t ir.Type) bandPair {
	w := t.Bits()
	var p bandPair
	if w == 0 {
		return p
	}
	bands := bandBoundaries(t)
	for b := 0; b < w; b++ {
		p[bands.of(b)]++
	}
	for i := range p {
		p[i] /= float64(w)
	}
	return p
}

// transition is the per-edge band behaviour: P[from][to] is the
// probability that a corruption in class `from` of the operand propagates
// into class `to` of the result. Row sums below 1 are masking; the crash
// column is tracked separately.
type transition [nClasses]bandPair

// diagonal returns a band-preserving transition scaled by prop.
func diagonal(prop float64) transition {
	var tr transition
	for i := range tr {
		tr[i][i] = prop
	}
	return tr
}

// toReplaced returns a transition sending everything to the replaced
// class with probability prop (control-driven corruption swaps whole
// values).
func toReplaced(prop float64) transition {
	var tr transition
	for i := range tr {
		tr[i][classReplaced] = prop
	}
	return tr
}

// propTotal returns, per input band, the total propagation probability.
func (tr transition) propTotal(from int) float64 { return tr[from].total() }

// transitionFor derives the banded tuple of instruction `in` with operand
// opIdx corrupted; the scalar crash probability rides alongside.
func (m *Model) transitionFor(in *ir.Instr, opIdx int) (transition, float64) {
	switch in.Op {
	case ir.OpStore:
		if opIdx == 1 {
			return transition{}, m.prof.CrashProb(in)
		}
		return diagonal(1), 0
	case ir.OpLoad:
		c := m.prof.CrashProb(in)
		// A surviving wrong-address read returns an unrelated value:
		// large-magnitude corruption.
		return toReplaced(1 - c), c
	case ir.OpICmp, ir.OpFCmp,
		ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpLShr, ir.OpAShr,
		ir.OpSDiv, ir.OpUDiv, ir.OpSRem, ir.OpURem, ir.OpMul,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
		ir.OpIntrinsic:
		return m.empiricalTransition(in, opIdx), 0
	case ir.OpTrunc, ir.OpZExt, ir.OpSExt, ir.OpFPTrunc, ir.OpFPExt, ir.OpBitcast:
		return positionalTransition(in.Operands[0].ValueType(), in.Type), 0
	case ir.OpFPToSI, ir.OpSIToFP:
		// Value-preserving conversions: magnitude class survives.
		return diagonal(1), 0
	case ir.OpSelect:
		if cmp, armMap, ok := minMaxIdiom(in); ok {
			// Compare-select min/max idiom: the corrupted value appears as
			// both a compare operand and an arm, so the pair is modeled
			// jointly — a corruption that loses the comparison is fully
			// masked (e.g. an upward bit flip entering a min). The cond
			// edge carries nothing (opIdx 0); the arm edges carry the
			// joint empirical transition.
			if opIdx == 0 {
				return transition{}, 0
			}
			return m.selectTransition(cmp, armMap, opIdx), 0
		}
		if opIdx == 0 {
			// A redirected select swaps whole values.
			return toReplaced(1), 0
		}
		return diagonal(0.5), 0
	default:
		// add/sub, gep, phi, call/ret plumbing: band-preserving.
		return diagonal(1), 0
	}
}

// positionalTransition models width-changing bit-preserving casts: source
// bit k maps to destination bit k when k is below the destination width
// and is discarded otherwise.
func positionalTransition(src, dst ir.Type) transition {
	sw, dw := src.Bits(), dst.Bits()
	srcBands, dstBands := bandBoundaries(src), bandBoundaries(dst)
	var ft flipTally
	for b := 0; b < sw; b++ {
		from := srcBands.of(b)
		ft.counts[from]++
		if b >= dw {
			continue // truncated away
		}
		ft.hits[from][dstBands.of(b)]++
	}
	// Replaced values survive width changes as replaced values.
	ft.hits[classReplaced][classReplaced], ft.counts[classReplaced] = 1, 1
	return ft.transition()
}

// empiricalTransition measures the band transition matrix by re-executing
// the instruction on profiled operand samples with each bit of the
// corrupted operand flipped and classifying where the result difference
// lands.
func (m *Model) empiricalTransition(in *ir.Instr, opIdx int) transition {
	if m.cfg.DisableValueProfile {
		return diagonal(1)
	}
	samples := m.prof.Samples[in]
	if len(samples) == 0 {
		return diagonal(1)
	}
	if opIdx >= len(in.Operands) {
		return diagonal(1)
	}
	opType := in.Operands[opIdx].ValueType()
	w := opType.Bits()
	if w == 0 {
		return diagonal(1)
	}
	evalType := in.Operands[0].ValueType()
	opBands, resBands := bandBoundaries(opType), bandBoundaries(in.Type)
	cmpLike := in.Op.IsCmp()
	// Replaced row: the operand holds a wholly different value; zero (a
	// skipped initialization) and a large wrong value are the
	// representative cases.
	repls := [...]uint64{0, replacementPattern(opType)}

	var ft flipTally
	for _, s := range samples {
		base := execOp(in, evalType, s.LHS, s.RHS)
		for from := 0; from < nBands; from++ {
			lo, hi := opBands.span(from, w)
			ft.counts[from] += hi - lo
			for b := lo; b < hi; b++ {
				lhs, rhs := s.LHS, s.RHS
				if opIdx == 0 {
					lhs ^= 1 << uint(b)
				} else {
					rhs ^= 1 << uint(b)
				}
				diff := execOp(in, evalType, lhs, rhs) ^ base
				if diff == 0 {
					continue // masked
				}
				if cmpLike {
					// A flipped comparison redirects control: the
					// downstream corruption is whole-value.
					ft.hits[from][classReplaced]++
					continue
				}
				ft.hits[from][resBands.of(ir.HighestBit(diff))]++
			}
		}
		for _, repl := range repls {
			lhs, rhs := s.LHS, s.RHS
			if opIdx == 0 {
				lhs = repl
			} else {
				rhs = repl
			}
			ft.counts[classReplaced]++
			if execOp(in, evalType, lhs, rhs) != base {
				ft.hits[classReplaced][classReplaced]++
			}
		}
	}
	return ft.transition()
}

// replacementPattern is the large-wrong-value representative for the
// replaced corruption class.
func replacementPattern(t ir.Type) uint64 {
	if t.IsFloat() {
		return ir.FloatToBits(t, 1e9)
	}
	return ir.TruncateToWidth(1<<uint(t.Bits()-2), t.Bits())
}

// selectTransition is the banded version of the compare-select min/max
// idiom: flips per band of the mirrored compare operand, classified by
// where the selected value's difference lands.
func (m *Model) selectTransition(cmp *ir.Instr, armMap [2]int, armIdx int) transition {
	if m.cfg.DisableValueProfile {
		return diagonal(0.5)
	}
	samples := m.prof.Samples[cmp]
	if len(samples) == 0 {
		return diagonal(0.5)
	}
	t := cmp.Operands[0].ValueType()
	w := t.Bits()
	bands := bandBoundaries(t)
	repls := [...]uint64{0, replacementPattern(t)}
	corruptedOp := armMap[armIdx-1]

	pick := func(a, b uint64) uint64 {
		c := interp.EvalCmp(cmp.Pred, t, a, b)
		chosenArm := 2
		if c != 0 {
			chosenArm = 1
		}
		if armMap[chosenArm-1] == 0 {
			return a
		}
		return b
	}

	var ft flipTally
	for _, s := range samples {
		base := pick(s.LHS, s.RHS)
		for from := 0; from < nBands; from++ {
			lo, hi := bands.span(from, w)
			ft.counts[from] += hi - lo
			for b := lo; b < hi; b++ {
				a, bb := s.LHS, s.RHS
				if corruptedOp == 0 {
					a ^= 1 << uint(b)
				} else {
					bb ^= 1 << uint(b)
				}
				diff := pick(a, bb) ^ base
				if diff == 0 {
					continue
				}
				ft.hits[from][bands.of(ir.HighestBit(diff))]++
			}
		}
		// Replaced operand: zero typically wins a min and loses a max.
		for _, repl := range repls {
			a, bb := s.LHS, s.RHS
			if corruptedOp == 0 {
				a = repl
			} else {
				bb = repl
			}
			ft.counts[classReplaced]++
			if pick(a, bb) != base {
				ft.hits[classReplaced][classReplaced]++
			}
		}
	}
	return ft.transition()
}

// flipTally counts classified corruptions: of the counts[from]
// corruptions tried in class from, hits[from][to] landed in class to.
type flipTally struct {
	hits   [nClasses][nClasses]int
	counts [nClasses]int
}

// transition normalizes the tally into per-class probabilities; a class
// with no corruption tried keeps an all-zero row.
func (ft *flipTally) transition() transition {
	var tr transition
	for from, n := range ft.counts {
		if n > 0 {
			for to, h := range ft.hits[from] {
				tr[from][to] = float64(h) / float64(n)
			}
		}
	}
	return tr
}
