package baseline

import (
	"context"
	"testing"

	"trident/internal/core"
	"trident/internal/fault"
	"trident/internal/ir"
	"trident/internal/profile"
)

const program = `
module "base"
global @buf i64 x 16
func @main() void {
entry:
  br fill
fill:
  %i = phi i64 [i64 0, entry], [%inc, fill]
  %v = mul %i, i64 7
  %p = gep i64, @buf, %i
  store %v, %p
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 16
  condbr %c, fill, read
read:
  %x = load i64, @buf
  %masked = and %x, i64 1
  print %masked
  ret
}
`

func setup(t testing.TB) (*profile.Profile, *ir.Module) {
	t.Helper()
	m, err := ir.Parse(program)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.Collect(m, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prof, m
}

func TestPVFOverestimatesSDC(t *testing.T) {
	prof, m := setup(t)
	model := core.New(prof, core.TridentConfig())
	pvf := NewPVF(model).OverallSDC()
	epvf := NewEPVF(model).OverallSDC()
	trident := model.OverallSDC(0, 0).SDC

	inj, err := fault.New(m, fault.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fi, err := inj.CampaignRandom(context.Background(), 800)
	if err != nil {
		t.Fatal(err)
	}
	measured := fi.SDCProb()

	// Paper ordering (§VII-C): PVF >> ePVF >= TRIDENT ≈ FI.
	if pvf < epvf {
		t.Errorf("PVF (%v) should be >= ePVF (%v)", pvf, epvf)
	}
	if epvf+1e-9 < trident {
		t.Errorf("ePVF (%v) should be >= TRIDENT (%v)", epvf, trident)
	}
	if pvf <= measured {
		t.Errorf("PVF (%v) should overestimate FI (%v)", pvf, measured)
	}
	// Most of this program's faults crash (address chains) or are masked
	// (the and with 1); PVF must be far off while TRIDENT stays close.
	pvfErr := abs(pvf - measured)
	tridentErr := abs(trident - measured)
	if tridentErr >= pvfErr {
		t.Errorf("TRIDENT error (%v) should be below PVF error (%v)", tridentErr, pvfErr)
	}
}

func TestPVFInstrBounds(t *testing.T) {
	prof, _ := setup(t)
	model := core.New(prof, core.TridentConfig())
	pvf := NewPVF(model)
	epvf := NewEPVF(model)
	prof.Module.Instrs(func(in *ir.Instr) {
		p := pvf.InstrSDC(in)
		e := epvf.InstrSDC(in)
		if p < 0 || p > 1 || e < 0 || e > 1 {
			t.Errorf("out of range at %s: pvf=%v epvf=%v", in.Pos(), p, e)
		}
		if e > p+1e-9 {
			t.Errorf("ePVF (%v) exceeds PVF (%v) at %s", e, p, in.Pos())
		}
	})
}

func TestEPVFWithCrashOracle(t *testing.T) {
	prof, m := setup(t)
	inj, err := fault.New(m, fault.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Measure crash rates per instruction with a small campaign and feed
	// them to ePVF as the oracle, as the paper's evaluation did.
	crashRate := make(map[*ir.Instr]float64)
	for _, target := range inj.Targets() {
		res, err := inj.CampaignPerInstr(context.Background(), target, 40)
		if err != nil {
			t.Fatal(err)
		}
		crashRate[target] = res.Rate(fault.Crash)
	}
	model := core.New(prof, core.TridentConfig())
	epvf := NewEPVF(model)
	epvf.CrashOracle = func(in *ir.Instr) float64 { return crashRate[in] }
	withOracle := epvf.OverallSDC()

	plain := NewEPVF(model).OverallSDC()
	if withOracle < 0 || withOracle > 1 {
		t.Fatalf("oracle ePVF = %v out of range", withOracle)
	}
	// The oracle changes the estimate but both stay below PVF.
	pvf := NewPVF(model).OverallSDC()
	if withOracle > pvf+1e-9 || plain > pvf+1e-9 {
		t.Error("ePVF must not exceed PVF")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
