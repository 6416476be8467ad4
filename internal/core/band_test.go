package core

import (
	"math"
	"math/rand"
	"testing"

	"trident/internal/ir"
)

// scalarTypes lists every scalar value type.
var scalarTypes = []ir.Type{ir.I1, ir.I8, ir.I16, ir.I32, ir.I64, ir.F32, ir.F64, ir.Ptr}

// bandOfBit classifies bit b of a value of type t, deriving the band
// split anew for every bit: the reference for the split the transitions
// take once per type.
func bandOfBit(t ir.Type, b int) int {
	bounds := bandBoundaries(t)
	for band := nBands - 1; band > 0; band-- {
		if b >= bounds[band] {
			return band
		}
	}
	return 0
}

// shiftHighestBit finds the top set bit with a shift loop: the reference
// for ir.HighestBit.
func shiftHighestBit(x uint64) int {
	b := 0
	for x > 1 {
		x >>= 1
		b++
	}
	return b
}

func TestBandSplitSumsToOne(t *testing.T) {
	for _, ty := range scalarTypes {
		p := bandSplit(ty)
		if math.Abs(p.total()-1) > 1e-12 {
			t.Errorf("%s: split sums to %v", ty, p.total())
		}
		if p[classReplaced] != 0 {
			t.Errorf("%s: random bit flips must not seed the replaced class", ty)
		}
	}
}

func TestBandOfBitFloatBoundaries(t *testing.T) {
	// f32 top band starts at bit 16 (sign + exponent + 7 mantissa bits).
	if bandOfBit(ir.F32, 15) != 0 || bandOfBit(ir.F32, 16) != bandTop {
		t.Error("f32 band boundary wrong")
	}
	// f64 top band starts at bit 45.
	if bandOfBit(ir.F64, 44) != 0 || bandOfBit(ir.F64, 45) != bandTop {
		t.Error("f64 band boundary wrong")
	}
	// The f32 split gives the top band half the bits, matching the
	// paper's 48.66% "%g" masking closed form.
	p := bandSplit(ir.F32)
	if math.Abs(p[bandTop]-0.5) > 1e-12 {
		t.Errorf("f32 top-band share = %v, want 0.5", p[bandTop])
	}
}

func TestDiagonalAndToReplaced(t *testing.T) {
	d := diagonal(0.5)
	for i := 0; i < nClasses; i++ {
		for j := 0; j < nClasses; j++ {
			want := 0.0
			if i == j {
				want = 0.5
			}
			if d[i][j] != want {
				t.Errorf("diagonal[%d][%d] = %v", i, j, d[i][j])
			}
		}
	}
	r := toReplaced(0.8)
	for i := 0; i < nClasses; i++ {
		if r[i][classReplaced] != 0.8 || r.propTotal(i) != 0.8 {
			t.Errorf("toReplaced row %d wrong: %v", i, r[i])
		}
	}
}

func TestPositionalTransitionTrunc(t *testing.T) {
	// i64 -> i16: source low band (bits 0..31) maps its surviving bits
	// (0..15) onto the destination's bands; the source high band (32..63)
	// is discarded entirely.
	tr := positionalTransition(ir.I64, ir.I16)
	if tr.propTotal(bandTop) != 0 {
		t.Errorf("source high band should be fully truncated: %v", tr[bandTop])
	}
	// 16 of 32 low-band source bits survive.
	if math.Abs(tr.propTotal(0)-0.5) > 1e-12 {
		t.Errorf("low band survival = %v, want 0.5", tr.propTotal(0))
	}
	// Replaced values survive the cast as replaced values.
	if tr[classReplaced][classReplaced] != 1 {
		t.Error("replaced class must survive casts")
	}
}

func TestPositionalTransitionExtension(t *testing.T) {
	// Widening keeps every source bit; band membership is reinterpreted
	// in the destination type.
	tr := positionalTransition(ir.I16, ir.I64)
	if math.Abs(tr.propTotal(0)-1) > 1e-12 || math.Abs(tr.propTotal(bandTop)-1) > 1e-12 {
		t.Errorf("widening should preserve all bits: %v", tr)
	}
	// All i16 bits (0..15) are in the i64 low band (<32).
	if tr[bandTop][bandTop] != 0 {
		t.Error("i16 high bits land in the i64 low band")
	}
}

func TestHighestBit(t *testing.T) {
	xs := []uint64{0, 1, ^uint64(0)}
	for k := 1; k < 64; k++ {
		p := uint64(1) << uint(k)
		xs = append(xs, p-1, p, p+1)
	}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		// Shift a random word right by a random amount so every top-bit
		// position is drawn, not only the top few.
		xs = append(xs, rnd.Uint64()>>uint(rnd.Intn(64)))
	}
	for _, x := range xs {
		if got, want := ir.HighestBit(x), shiftHighestBit(x); got != want {
			t.Errorf("HighestBit(%#x) = %d, shift loop gives %d", x, got, want)
		}
	}
	for _, c := range []struct {
		x    uint64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {0x80, 7}, {1 << 63, 63}} {
		if got := ir.HighestBit(c.x); got != c.want {
			t.Errorf("HighestBit(%#x) = %d, want %d", c.x, got, c.want)
		}
	}
}

// TestBandBoundsMatchPerBitClassification checks the band split a
// transition takes once per type against the per-bit classification:
// of agrees bit by bit, and the band spans cover the bits in order, each
// bit in the span of its own band.
func TestBandBoundsMatchPerBitClassification(t *testing.T) {
	for _, ty := range scalarTypes {
		w := ty.Bits()
		bands := bandBoundaries(ty)
		for b := 0; b < w; b++ {
			if got, want := bands.of(b), bandOfBit(ty, b); got != want {
				t.Errorf("%s bit %d: band split gives %d, per-bit classification %d", ty, b, got, want)
			}
		}
		next := 0
		for band := 0; band < nBands; band++ {
			lo, hi := bands.span(band, w)
			if lo != next || hi < lo {
				t.Errorf("%s band %d: span [%d, %d) does not continue at bit %d", ty, band, lo, hi, next)
			}
			for b := lo; b < hi; b++ {
				if got := bandOfBit(ty, b); got != band {
					t.Errorf("%s bit %d: in the span of band %d, classified %d", ty, b, band, got)
				}
			}
			next = hi
		}
		if next != w {
			t.Errorf("%s: band spans end at bit %d, want %d", ty, next, w)
		}
	}
}

func TestEmpiricalTransitionMaskedAnd(t *testing.T) {
	// and %x, 0xFF00: flips of x's bits outside 8..15 are masked; the
	// replaced rows still propagate (0 vs golden differs).
	model := profiledModel(t, `
module "band"
func @main() void {
entry:
  %x = add i64 4660, i64 0
  %m = and %x, i64 65280
  print %m
  ret
}
`, TridentConfig())
	and := instrByName(t, model.prof.Module, "m")
	tr := model.empiricalTransition(and, 0)
	// Low band of i64 = bits 0..31; only bits 8..15 survive: 8/32.
	if math.Abs(tr.propTotal(0)-0.25) > 1e-9 {
		t.Errorf("low-band propagation = %v, want 0.25", tr.propTotal(0))
	}
	if tr.propTotal(bandTop) != 0 {
		t.Errorf("high-band propagation = %v, want 0 (all masked)", tr.propTotal(bandTop))
	}
	// x = 4660 has bits under the mask, so replacing x with 0 changes the
	// result: the replaced class propagates.
	if tr[classReplaced][classReplaced] == 0 {
		t.Error("replaced operand should change the masked result")
	}
}

func TestTransitionForStoreAddressCrash(t *testing.T) {
	model := profiledModel(t, `
module "sa"
global @g i64 x 8
func @main() void {
entry:
  %i = add i64 1, i64 0
  %p = gep i64, @g, %i
  store i64 5, %p
  %v = load i64, @g
  print %v
  ret
}
`, TridentConfig())
	var store *ir.Instr
	model.prof.Module.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore {
			store = in
		}
	})
	tr, crash := model.transitionFor(store, 1)
	if crash <= 0 {
		t.Error("store address corruption should carry crash probability")
	}
	for i := 0; i < nClasses; i++ {
		if tr.propTotal(i) != 0 {
			t.Error("store address corruption must not propagate as a value")
		}
	}
	trVal, crashVal := model.transitionFor(store, 0)
	if crashVal != 0 || trVal[0][0] != 1 {
		t.Error("store value corruption should propagate band-preserving")
	}
}
