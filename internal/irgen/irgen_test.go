package irgen

import (
	"context"
	"testing"

	"trident/internal/core"
	"trident/internal/fault"
	"trident/internal/interp"
	"trident/internal/ir"
	"trident/internal/profile"
	"trident/internal/protect"
)

const propertySeeds = 40

func TestGeneratedProgramsVerifyAndTerminate(t *testing.T) {
	for seed := uint64(1); seed <= propertySeeds; seed++ {
		m := Generate(Config{Seed: seed})
		if err := ir.Verify(m); err != nil {
			t.Fatalf("seed %d: verify: %v", seed, err)
		}
		res, err := interp.Run(m, interp.Options{MaxDynInstrs: 5_000_000})
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if res.Outcome != interp.OutcomeOK {
			t.Fatalf("seed %d: outcome %s (%v)", seed, res.Outcome, res.Trap)
		}
		if res.OutputLines == 0 {
			t.Fatalf("seed %d: no output", seed)
		}
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		a := ir.Print(Generate(Config{Seed: seed}))
		b := ir.Print(Generate(Config{Seed: seed}))
		if a != b {
			t.Fatalf("seed %d: generation not deterministic", seed)
		}
	}
	if ir.Print(Generate(Config{Seed: 1})) == ir.Print(Generate(Config{Seed: 2})) {
		t.Error("different seeds generated identical programs")
	}
}

// TestRoundTripProperty: print/parse of every generated program preserves
// behaviour.
func TestRoundTripProperty(t *testing.T) {
	for seed := uint64(1); seed <= propertySeeds; seed++ {
		m := Generate(Config{Seed: seed})
		r1, err := interp.Run(m, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m2, err := ir.Parse(ir.Print(m))
		if err != nil {
			t.Fatalf("seed %d: reparse: %v", seed, err)
		}
		r2, err := interp.Run(m2, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Output != r2.Output || r1.DynInstrs != r2.DynInstrs {
			t.Fatalf("seed %d: round trip changed behaviour", seed)
		}
	}
}

// TestModelBoundsProperty: on every generated program the model yields
// probabilities in [0,1] for every instruction and the overall estimate.
func TestModelBoundsProperty(t *testing.T) {
	for seed := uint64(1); seed <= propertySeeds; seed++ {
		m := Generate(Config{Seed: seed})
		prof, err := profile.Collect(m, profile.Options{})
		if err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		for _, cfg := range []core.Config{
			core.TridentConfig(), core.FSFCConfig(), core.FSOnlyConfig(),
		} {
			model := core.New(prof, cfg)
			overall := model.OverallSDC(0, 1).SDC
			if overall < 0 || overall > 1 {
				t.Fatalf("seed %d: overall %v out of bounds", seed, overall)
			}
			m.Instrs(func(in *ir.Instr) {
				p := model.InstrSDC(in)
				c := model.InstrCrash(in)
				if p < 0 || p > 1 || c < 0 || c > 1 || p+c > 1+1e-9 {
					t.Errorf("seed %d: %s sdc=%v crash=%v", seed, in.Pos(), p, c)
				}
			})
		}
	}
}

// TestInjectionClassifiesProperty: every injection outcome on generated
// programs is one of the five classes and campaigns account for every
// trial.
func TestInjectionClassifiesProperty(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		m := Generate(Config{Seed: seed})
		inj, err := fault.New(m, fault.Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := inj.CampaignRandom(context.Background(), 40)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		total := 0
		for _, n := range res.Counts {
			total += n
		}
		if total != res.N() {
			t.Fatalf("seed %d: %d classified of %d", seed, total, res.N())
		}
	}
}

// TestModelVariantOrderingProperty: fs+fc never predicts less than
// TRIDENT (removing fm can only raise the store terms).
func TestModelVariantOrderingProperty(t *testing.T) {
	for seed := uint64(1); seed <= propertySeeds; seed++ {
		m := Generate(Config{Seed: seed})
		prof, err := profile.Collect(m, profile.Options{})
		if err != nil {
			t.Fatal(err)
		}
		trident := core.New(prof, core.TridentConfig()).OverallSDC(0, 1).SDC
		fsfc := core.New(prof, core.FSFCConfig()).OverallSDC(0, 1).SDC
		if trident > fsfc+1e-6 {
			t.Errorf("seed %d: trident %v > fs+fc %v", seed, trident, fsfc)
		}
	}
}

func TestGeneratedProgramsAreProfilable(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		m := Generate(Config{Seed: seed})
		prof, err := profile.Collect(m, profile.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if prof.TotalDynResults == 0 {
			t.Fatalf("seed %d: empty profile", seed)
		}
	}
}

// TestProtectionProperty: on random programs, full duplication preserves
// behaviour, costs overhead, and detects injected faults.
func TestProtectionProperty(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		m := Generate(Config{Seed: seed})
		prof, err := profile.Collect(m, profile.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		model := core.New(prof, core.TridentConfig())
		sdc := make(map[*ir.Instr]float64)
		m.Instrs(func(in *ir.Instr) {
			if in.HasResult() {
				sdc[in] = model.InstrSDC(in)
			}
		})
		cands := protect.Candidates(prof, sdc)
		if len(cands) == 0 {
			continue
		}
		plan := protect.SelectKnapsack(cands, protect.FullCost(cands))
		protected, err := protect.Apply(m, plan.Selected)
		if err != nil {
			t.Fatalf("seed %d: apply: %v", seed, err)
		}
		overhead, err := protect.MeasureOverhead(m, protected)
		if err != nil {
			t.Fatalf("seed %d: overhead: %v", seed, err)
		}
		if overhead <= 0 {
			t.Errorf("seed %d: full duplication overhead %v", seed, overhead)
		}
		inj, err := fault.New(protected, fault.Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := inj.CampaignRandom(context.Background(), 40)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Counts[fault.Detected] == 0 {
			t.Errorf("seed %d: fully duplicated program detected nothing", seed)
		}
	}
}

// TestFramesPrograms checks the Config.Frames shapes: every program
// verifies, terminates, defines the recursive helper, and prints inside
// its loops, with a stack buffer in every helper activation.
func TestFramesPrograms(t *testing.T) {
	for seed := uint64(1); seed <= propertySeeds; seed++ {
		m := Generate(Config{Seed: seed, Frames: true})
		if err := ir.Verify(m); err != nil {
			t.Fatalf("seed %d: verify: %v", seed, err)
		}
		if m.Func("rec") == nil {
			t.Fatalf("seed %d: no @rec", seed)
		}
		calls, allocas := 0, 0
		res, err := interp.Run(m, interp.Options{
			MaxDynInstrs: 5_000_000,
			Hooks: interp.Hooks{OnResult: func(_ *interp.Context, in *ir.Instr, _ uint64) {
				switch in.Op {
				case ir.OpCall:
					calls++
				case ir.OpAlloca:
					allocas++
				}
			}},
		})
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if res.Outcome != interp.OutcomeOK {
			t.Fatalf("seed %d: outcome %s (%v)", seed, res.Outcome, res.Trap)
		}
		plain, err := interp.Run(Generate(Config{Seed: seed}), interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if calls == 0 || allocas <= calls || res.OutputLines <= plain.OutputLines {
			t.Errorf("seed %d: %d calls, %d allocas, %d output lines (%d without frames)",
				seed, calls, allocas, res.OutputLines, plain.OutputLines)
		}
	}
}
