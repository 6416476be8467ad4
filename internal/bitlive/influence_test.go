package bitlive_test

import (
	"testing"

	"trident/internal/bitlive"
	"trident/internal/ir"
)

// classify builds a one-function module around mk (same harness contract
// as corner_test.go), classifies it, and returns the influence table.
func classify(t *testing.T, mk func(b *ir.Builder, x *ir.Instr)) *bitlive.Influence {
	t.Helper()
	m := ir.NewModule("influence")
	g := m.AddGlobal("g", ir.I64, 4, []uint64{0x5A, 1, 2, 3})
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	b.SetBlock(b.NewBlock("entry"))
	x := b.Load(ir.I64, b.Gep(ir.I64, g, ir.ConstInt(ir.I64, 0)))
	mk(b, x)
	b.Ret(nil)
	f.Renumber()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return bitlive.ClassifyInfluence(m, bitlive.Analyze(m))
}

func TestClassifyAddressBits(t *testing.T) {
	var addr *ir.Instr
	m := ir.NewModule("influence")
	g := m.AddGlobal("g", ir.I64, 4, []uint64{0x5A, 1, 2, 3})
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	b.SetBlock(b.NewBlock("entry"))
	x := b.Load(ir.I64, b.Gep(ir.I64, g, ir.ConstInt(ir.I64, 0)))
	// x feeds a gep index with an 8-byte stride: its low 61 bits are
	// address bits; the top 3 multiply off the address and are masked.
	addr = b.Gep(ir.I64, g, x)
	b.Print(b.Load(ir.I64, addr))
	b.Ret(nil)
	f.Renumber()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	inf := bitlive.ClassifyInfluence(m, bitlive.Analyze(m))
	idx := addr.Operands[1].(*ir.Instr)
	if got := inf.Stratum(idx, 0); got != bitlive.StratumAddress {
		t.Errorf("index bit 0 = %v, want address", got)
	}
	if got := inf.Stratum(idx, 63); got != bitlive.StratumMasked {
		t.Errorf("index bit 63 = %v, want masked (stride kills it)", got)
	}
	// The gep result is pointer-typed: every bit is an address bit.
	if got := inf.Stratum(addr, 17); got != bitlive.StratumAddress {
		t.Errorf("gep result bit = %v, want address", got)
	}
}

func TestClassifyBoundaryBits(t *testing.T) {
	var x0 *ir.Instr
	inf := classify(t, func(b *ir.Builder, x *ir.Instr) {
		x0 = x
		// x <s 0 depends only on the sign bit; the comparison claims it
		// as Boundary (priority above Sign).
		cmp := b.ICmp(ir.PredSLT, x, ir.ConstInt(ir.I64, 0))
		b.Print(b.Select(cmp, x, ir.ConstInt(ir.I64, 7)))
	})
	if got := inf.Stratum(x0, 63); got != bitlive.StratumBoundary {
		t.Errorf("sign-compared bit 63 = %v, want boundary", got)
	}
	if got := inf.Stratum(x0, 10); got != bitlive.StratumNoise {
		t.Errorf("mid bit 10 = %v, want noise", got)
	}
}

func TestClassifySignAndNoise(t *testing.T) {
	var sum *ir.Instr
	inf := classify(t, func(b *ir.Builder, x *ir.Instr) {
		sum = b.Add(x, ir.ConstInt(ir.I64, 3))
		b.Print(sum)
	})
	if got := inf.Stratum(sum, 63); got != bitlive.StratumSign {
		t.Errorf("top bit = %v, want sign", got)
	}
	if got := inf.Stratum(sum, 5); got != bitlive.StratumNoise {
		t.Errorf("bit 5 = %v, want noise", got)
	}
}

// TestMasksDisjointCover: the per-instruction stratum masks must
// partition the result width exactly — disjoint and covering.
func TestMasksDisjointCover(t *testing.T) {
	m := ir.NewModule("cover")
	g := m.AddGlobal("g", ir.I64, 4, []uint64{9, 8, 7, 6})
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	b.SetBlock(b.NewBlock("entry"))
	x := b.Load(ir.I64, b.Gep(ir.I64, g, ir.ConstInt(ir.I64, 1)))
	y := b.Mul(x, ir.ConstInt(ir.I64, 12))
	cmp := b.ICmp(ir.PredULT, y, ir.ConstInt(ir.I64, 256))
	n := b.Select(cmp, y, x)
	b.Store(n, b.Gep(ir.I64, g, b.And(x, ir.ConstInt(ir.I64, 3))))
	b.Print(b.Trunc(n, ir.I8))
	b.Ret(nil)
	f.Renumber()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	inf := bitlive.ClassifyInfluence(m, bitlive.Analyze(m))
	// ModuleStats counts each stratum mask's bits; Stratum names the one
	// stratum a bit belongs to. The two agree stratum by stratum exactly
	// when every mask stays within the result width and every bit lies in
	// exactly one mask.
	var perBit [bitlive.NumStrata]int
	m.Instrs(func(in *ir.Instr) {
		if in.HasResult() {
			for b := 0; b < in.Type.Bits(); b++ {
				perBit[inf.Stratum(in, b)]++
			}
		}
	})
	st := inf.ModuleStats(m)
	total := 0
	for s := 0; s < bitlive.NumStrata; s++ {
		total += st.Bits[s]
	}
	if total != st.Total || st.Total == 0 {
		t.Errorf("ModuleStats inconsistent: %+v", st)
	}
	if perBit != st.Bits {
		t.Errorf("strata not a partition: per-bit strata %v, mask bit counts %v", perBit, st.Bits)
	}
}

func TestPlanValidateAndHash(t *testing.T) {
	p := bitlive.DefaultPlan()
	if err := p.Validate(); err != nil {
		t.Fatalf("default plan invalid: %v", err)
	}
	bad := p
	bad.Rates[bitlive.StratumNoise] = 0
	if bad.Validate() == nil {
		t.Error("zero rate accepted")
	}
	bad.Rates[bitlive.StratumNoise] = 1.5
	if bad.Validate() == nil {
		t.Error("rate > 1 accepted")
	}
	q := p
	q.Rates[bitlive.StratumNoise] = 0.5
	if p.Hash() == q.Hash() {
		t.Error("distinct plans share a hash")
	}
	if p.Hash() != bitlive.DefaultPlan().Hash() {
		t.Error("plan hash not deterministic")
	}
}

func TestInfluenceHashTracksClassification(t *testing.T) {
	build := func(cmpConst int64) (*ir.Module, *bitlive.Influence) {
		m := ir.NewModule("hash")
		g := m.AddGlobal("g", ir.I64, 1, []uint64{0x5A})
		f := m.NewFunc("main", ir.Void)
		b := ir.NewBuilder(f)
		b.SetBlock(b.NewBlock("entry"))
		x := b.Load(ir.I64, b.Gep(ir.I64, g, ir.ConstInt(ir.I64, 0)))
		cmp := b.ICmp(ir.PredULT, x, ir.ConstInt(ir.I64, cmpConst))
		b.Print(b.Select(cmp, x, ir.ConstInt(ir.I64, 0)))
		b.Ret(nil)
		f.Renumber()
		if err := ir.Verify(m); err != nil {
			t.Fatalf("verify: %v", err)
		}
		return m, bitlive.ClassifyInfluence(m, bitlive.Analyze(m))
	}
	m1, i1 := build(16) // boundary bits: >= 4
	m2, i2 := build(64) // boundary bits: >= 6
	if i1.ModuleHash(m1) == i2.ModuleHash(m2) {
		t.Error("different boundary sets share a module hash")
	}
	m3, i3 := build(16)
	if i1.ModuleHash(m1) != i3.ModuleHash(m3) {
		t.Error("influence module hash not deterministic")
	}
}
