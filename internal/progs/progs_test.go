package progs

import (
	"context"
	"strings"
	"testing"

	"trident/internal/fault"
	"trident/internal/interp"
	"trident/internal/ir"
	"trident/internal/profile"
)

func TestRegistryComplete(t *testing.T) {
	if n := len(All()); n != 11 {
		t.Fatalf("got %d programs, want 11 (paper Table I)", n)
	}
	ext := Extended()
	if len(ext) != 14 {
		t.Fatalf("got %d extended programs, want 11 + 3 narrow-output kernels", len(ext))
	}
	seen := make(map[string]bool)
	for _, p := range ext {
		if p.Name == "" || p.Suite == "" || p.Area == "" || p.Input == "" {
			t.Errorf("%q has incomplete metadata: %+v", p.Name, p)
		}
		if p.Build == nil {
			t.Errorf("%q has no builder", p.Name)
		}
		if seen[p.Name] {
			t.Errorf("duplicate %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("pathfinder"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name should error")
	}
	if len(Names()) != 14 {
		t.Errorf("Names() = %d entries", len(Names()))
	}
}

// TestLoad checks that Load resolves exactly one of a benchmark name
// and IR text, and that both resolve to the same program.
func TestLoad(t *testing.T) {
	byName, err := Load("nw", "")
	if err != nil {
		t.Fatal(err)
	}
	byText, err := Load("", ir.Print(byName))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := ir.Print(byName), ir.Print(byText); a != b {
		t.Error("IR text loads a different module than the benchmark it prints")
	}
	for _, bad := range [][2]string{{"", ""}, {"nw", ir.Print(byName)}, {"no-such-kernel", ""}, {"", "not IR"}} {
		if _, err := Load(bad[0], bad[1]); err == nil {
			t.Errorf("Load(%q, %.20q) succeeded", bad[0], bad[1])
		}
	}
}

func TestAllProgramsBuildVerifyAndRun(t *testing.T) {
	for _, p := range Extended() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			m := p.Build()
			if err := ir.Verify(m); err != nil {
				t.Fatalf("verify: %v", err)
			}
			res, err := interp.Run(m, interp.Options{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Outcome != interp.OutcomeOK {
				t.Fatalf("outcome %s (%v)", res.Outcome, res.Trap)
			}
			if res.OutputLines == 0 {
				t.Error("program produced no output; SDCs would be undetectable")
			}
			if res.DynInstrs < 1000 {
				t.Errorf("only %d dynamic instructions; too small to be meaningful", res.DynInstrs)
			}
			if res.DynInstrs > 5_000_000 {
				t.Errorf("%d dynamic instructions; too slow for FI campaigns", res.DynInstrs)
			}
			t.Logf("%s: %d static, %d dynamic instrs, %d output lines",
				p.Name, m.NumInstrs(), res.DynInstrs, res.OutputLines)
		})
	}
}

func TestProgramsAreDeterministic(t *testing.T) {
	for _, p := range Extended() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			r1, err := interp.Run(p.Build(), interp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := interp.Run(p.Build(), interp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r1.Output != r2.Output || r1.DynInstrs != r2.DynInstrs {
				t.Error("two builds produced different executions")
			}
		})
	}
}

func TestProgramsRoundTripThroughTextFormat(t *testing.T) {
	for _, p := range Extended() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			m := p.Build()
			text := ir.Print(m)
			m2, err := ir.Parse(text)
			if err != nil {
				t.Fatalf("reparse: %v", err)
			}
			r1, err := interp.Run(m, interp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := interp.Run(m2, interp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r1.Output != r2.Output {
				t.Error("round-tripped module behaves differently")
			}
		})
	}
}

func TestProgramsAreProfilable(t *testing.T) {
	for _, p := range Extended() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			m := p.Build()
			prof, err := profile.Collect(m, profile.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if prof.NumStaticMemEdges() == 0 {
				t.Error("no memory-dependence edges; fm would be vacuous")
			}
			if len(prof.BranchTaken) == 0 {
				t.Error("no conditional branches profiled; fc would be vacuous")
			}
		})
	}
}

func TestProgramsAreInjectable(t *testing.T) {
	for _, p := range Extended() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			m := p.Build()
			inj, err := fault.New(m, fault.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			res, err := inj.CampaignRandom(context.Background(), 30)
			if err != nil {
				t.Fatal(err)
			}
			if res.N() != 30 {
				t.Fatalf("campaign ran %d trials", res.N())
			}
		})
	}
}

func TestHotspotUsesReducedPrecisionOutput(t *testing.T) {
	p, err := ByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	text := ir.Print(p.Build())
	if !strings.Contains(text, "print g2 ") {
		t.Error("hotspot must print with reduced precision (paper §IV-E)")
	}
}

func TestTableOneDiversity(t *testing.T) {
	// The benchmark set must mix integer-dominant and float-dominant
	// programs, as Table I's domains imply.
	floatProgs := 0
	for _, p := range All() {
		m := p.Build()
		hasFloat := false
		m.Instrs(func(in *ir.Instr) {
			if in.Type.IsFloat() {
				hasFloat = true
			}
		})
		if hasFloat {
			floatProgs++
		}
	}
	if floatProgs < 4 || floatProgs > 9 {
		t.Errorf("%d of 11 programs use floats; want a mix", floatProgs)
	}
}
