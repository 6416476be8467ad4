package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"trident/internal/fault"
	"trident/internal/ir"
	"trident/internal/profile"
)

// mixed exercises all three levels: data chains, a data-dependent branch
// guarding a store, and memory dependence between two loops.
const mixed = `
module "mixed"
global @buf i64 x 32
func @main() void {
entry:
  br fill
fill:
  %i = phi i64 [i64 0, entry], [%inc, fjoin]
  %h = mul %i, i64 37
  %hm = srem %h, i64 100
  %c = icmp slt %hm, i64 50
  condbr %c, fstore, fjoin
fstore:
  %p = gep i64, @buf, %i
  store %hm, %p
  br fjoin
fjoin:
  %inc = add %i, i64 1
  %fc = icmp slt %inc, i64 32
  condbr %fc, fill, rentry
rentry:
  br read
read:
  %j = phi i64 [i64 0, rentry], [%jinc, read]
  %acc = phi i64 [i64 0, rentry], [%nacc, read]
  %q = gep i64, @buf, %j
  %v = load i64, %q
  %nacc = add %acc, %v
  %jinc = add %j, i64 1
  %rc = icmp slt %jinc, i64 32
  condbr %rc, read, done
done:
  print %nacc
  ret
}
`

func TestInstrSDCInRange(t *testing.T) {
	model := profiledModel(t, mixed, TridentConfig())
	model.prof.Module.Instrs(func(in *ir.Instr) {
		p := model.InstrSDC(in)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Errorf("InstrSDC(%s) = %v out of range", in.Pos(), p)
		}
	})
}

func TestNonResultInstructionsHaveZeroSDC(t *testing.T) {
	model := profiledModel(t, mixed, TridentConfig())
	model.prof.Module.Instrs(func(in *ir.Instr) {
		if !in.HasResult() && model.InstrSDC(in) != 0 {
			t.Errorf("InstrSDC(%s) != 0 for non-register instruction", in.Pos())
		}
	})
}

func TestModelVariantOrdering(t *testing.T) {
	// The simpler models over-predict on memory-heavy programs: assuming
	// a corrupted store is an SDC ignores fm masking, so
	// trident <= fs+fc, and fs (which drops branch terms but keeps store
	// terms) also over-predicts relative to trident.
	m, err := ir.Parse(mixed)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.Collect(m, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	trident := New(prof, TridentConfig()).OverallSDC(0, 0).SDC
	fsfc := New(prof, FSFCConfig()).OverallSDC(0, 0).SDC
	fsOnly := New(prof, FSOnlyConfig()).OverallSDC(0, 0).SDC

	if trident > fsfc+1e-9 {
		t.Errorf("trident (%v) should not exceed fs+fc (%v)", trident, fsfc)
	}
	if fsOnly > fsfc+1e-9 {
		t.Errorf("fs (%v) should not exceed fs+fc (%v): fs drops branch terms", fsOnly, fsfc)
	}
	if trident <= 0 || fsfc <= 0 || fsOnly <= 0 {
		t.Errorf("all variants should predict nonzero SDC: %v %v %v", trident, fsfc, fsOnly)
	}
}

func TestOverallSDCSampledMatchesExact(t *testing.T) {
	model := profiledModel(t, mixed, TridentConfig())
	exact := model.OverallSDC(0, 0)
	sampled := model.OverallSDC(3000, 99)
	if exact.Sampled != 0 || sampled.Sampled != 3000 {
		t.Error("Sampled field wrong")
	}
	if math.Abs(exact.SDC-sampled.SDC) > 0.05 {
		t.Errorf("sampled %v vs exact %v differ too much", sampled.SDC, exact.SDC)
	}
}

func TestOverallSDCDeterministic(t *testing.T) {
	a := profiledModel(t, mixed, TridentConfig()).OverallSDC(500, 7)
	b := profiledModel(t, mixed, TridentConfig()).OverallSDC(500, 7)
	if a.SDC != b.SDC {
		t.Errorf("sampled predictions differ: %v vs %v", a.SDC, b.SDC)
	}
}

// TestModelTracksFaultInjection is the headline validation: the TRIDENT
// prediction must land close to the FI measurement on a program that
// exercises all three sub-models (the paper reports a 4.75% mean absolute
// error across its benchmarks).
func TestModelTracksFaultInjection(t *testing.T) {
	m, err := ir.Parse(mixed)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.Collect(m, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	predicted := New(prof, TridentConfig()).OverallSDC(0, 0).SDC

	inj, err := fault.New(m, fault.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	campaign, err := inj.CampaignRandom(context.Background(), 1500)
	if err != nil {
		t.Fatal(err)
	}
	measured := campaign.SDCProb()

	if diff := math.Abs(predicted - measured); diff > 0.15 {
		t.Errorf("TRIDENT %v vs FI %v: |diff| = %v too large", predicted, measured, diff)
	}
}

func TestPerInstrSDCMap(t *testing.T) {
	model := profiledModel(t, mixed, TridentConfig())
	var targets []*ir.Instr
	model.prof.Module.Instrs(func(in *ir.Instr) {
		if in.HasResult() {
			targets = append(targets, in)
		}
	})
	got := model.PerInstrSDC(targets)
	if len(got) != len(targets) {
		t.Fatalf("map size %d, want %d", len(got), len(targets))
	}
}

func TestInstrCrashEstimate(t *testing.T) {
	model := profiledModel(t, mixed, TridentConfig())
	gep := instrByOp(t, model.prof.Module, "fstore", ir.OpGep)
	if c := model.InstrCrash(gep); c < 0.3 {
		t.Errorf("crash estimate for address producer = %v, want substantial", c)
	}
	// A value that feeds only arithmetic and output should rarely crash.
	nacc := instrByName(t, model.prof.Module, "nacc")
	if c := model.InstrCrash(nacc); c > 0.2 {
		t.Errorf("crash estimate for pure data value = %v, want small", c)
	}
}

func TestModelString(t *testing.T) {
	m, err := ir.Parse(mixed)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.Collect(m, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if New(prof, TridentConfig()).String() != "trident(fs+fc+fm)" {
		t.Error("trident name wrong")
	}
	if New(prof, FSFCConfig()).String() != "fs+fc" {
		t.Error("fs+fc name wrong")
	}
	if New(prof, FSOnlyConfig()).String() != "fs" {
		t.Error("fs name wrong")
	}
}

func TestOutputFilter(t *testing.T) {
	// With every print excluded from the output set, nothing is an SDC.
	m, err := ir.Parse(mixed)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.Collect(m, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := TridentConfig()
	cfg.OutputFilter = func(*ir.Instr) bool { return false }
	model := New(prof, cfg)
	if got := model.OverallSDC(0, 0).SDC; got != 0 {
		t.Errorf("overall SDC = %v with no output instructions, want 0", got)
	}
}

func TestInstrSDCCached(t *testing.T) {
	model := profiledModel(t, mixed, TridentConfig())
	in := instrByName(t, model.prof.Module, "nacc")
	a := model.InstrSDC(in)
	b := model.InstrSDC(in)
	if a != b {
		t.Error("cached InstrSDC differs")
	}
}

// TestModelsShareProfileConcurrently runs several models over one shared
// profile from separate goroutines: each model keeps its compiled graph
// and walk scratch to itself and only reads the profile, so the race
// detector must stay quiet and every model must agree with a serial one.
func TestModelsShareProfileConcurrently(t *testing.T) {
	prof := kernelProfile(t, "pathfinder")
	cfgs := []Config{TridentConfig(), TridentConfig(), FSFCConfig(), FSOnlyConfig()}
	got := make([]float64, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = New(prof, cfg).OverallSDC(0, 1).SDC
		}()
	}
	wg.Wait()
	want := New(prof, TridentConfig()).OverallSDC(0, 1).SDC
	for i := range cfgs[:2] {
		if got[i] != want {
			t.Errorf("concurrent trident model %d: OverallSDC %.17g, serial %.17g", i, got[i], want)
		}
	}
	for i, p := range got {
		if p <= 0 || p > 1 {
			t.Errorf("model %d: OverallSDC %v out of (0, 1]", i, p)
		}
	}
}
