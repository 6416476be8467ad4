package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"trident/internal/ir"
	"trident/internal/progs"
)

func TestExplainDecomposesMixedProgram(t *testing.T) {
	model := profiledModel(t, mixed, TridentConfig())
	// %hm feeds a store directly and a branch; the explanation must show
	// both path kinds and the contributions must be consistent with the
	// headline number.
	hm := instrByName(t, model.prof.Module, "hm")
	ex := model.Explain(hm)
	if ex.SDC != model.InstrSDC(hm) {
		t.Errorf("explanation SDC %v != InstrSDC %v", ex.SDC, model.InstrSDC(hm))
	}
	if len(ex.Stores) == 0 {
		t.Error("expected a memory-level path for %hm")
	}
	if len(ex.Branches) == 0 {
		t.Error("expected a control-flow path for %hm (feeds the store guard)")
	}
	if got := recompose(model, ex); got != ex.SDC {
		t.Errorf("path contributions recompose to %v, SDC %v", got, ex.SDC)
	}
}

// recompose re-sums ex's parts in walk order, as Algorithm 1 adds them
// (with fm, each store's per-class shares), and applies the two caps: at
// most 1, and no more than the crash share leaves.
func recompose(m *Model, ex *Explanation) float64 {
	p := ex.Direct
	for _, sc := range ex.Stores {
		if m.cfg.EnableFM {
			for _, b := range sc.bands {
				p += b
			}
		} else {
			p += sc.Contribution
		}
	}
	for _, bc := range ex.Branches {
		p += bc.Contribution
	}
	p = math.Min(p, 1)
	if avail := 1 - ex.Crash; p > avail {
		p = avail
	}
	if p < 0 {
		p = 0
	}
	return p
}

// TestExplainRecomposesInstrSDC requires, for every executed result
// instruction of the paper kernels under all three variants, that the
// explanation's headline is InstrSDC bit for bit and that its parts,
// re-summed in walk order, reproduce it exactly.
func TestExplainRecomposesInstrSDC(t *testing.T) {
	checked := 0
	for _, p := range progs.All() {
		prof := kernelProfile(t, p.Name)
		for _, v := range variants {
			m := New(prof, v.cfg)
			prof.Module.Instrs(func(in *ir.Instr) {
				if !in.HasResult() || prof.ExecCount[in] == 0 {
					return
				}
				ex := m.Explain(in)
				if want := m.InstrSDC(in); ex.SDC != want {
					t.Fatalf("%s/%s %s: Explain SDC %.17g, InstrSDC %.17g", p.Name, v.name, in.Pos(), ex.SDC, want)
				}
				if got := recompose(m, ex); got != ex.SDC {
					t.Fatalf("%s/%s %s: parts recompose to %.17g, SDC %.17g", p.Name, v.name, in.Pos(), got, ex.SDC)
				}
				for i := 1; i < len(ex.Stores); i++ {
					if m.g.id[ex.Stores[i-1].Store] >= m.g.id[ex.Stores[i].Store] {
						t.Fatalf("%s/%s %s: store paths not in walk order", p.Name, v.name, in.Pos())
					}
				}
				checked++
			})
		}
	}
	t.Logf("%d explanations recomposed", checked)
}

func TestExplainDirectOutput(t *testing.T) {
	model := profiledModel(t, `
module "direct"
func @main() void {
entry:
  %a = add i64 1, i64 2
  print %a
  ret
}
`, TridentConfig())
	ex := model.Explain(instrByName(t, model.prof.Module, "a"))
	if math.Abs(ex.Direct-1) > 1e-9 || len(ex.Stores) != 0 || len(ex.Branches) != 0 {
		t.Errorf("direct-only explanation wrong: %+v", ex)
	}
}

func TestExplainNonResultInstr(t *testing.T) {
	model := profiledModel(t, mixed, TridentConfig())
	var store *ir.Instr
	model.prof.Module.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore {
			store = in
		}
	})
	ex := model.Explain(store)
	if ex.SDC != 0 || len(ex.Stores) != 0 {
		t.Error("non-register instruction should have an empty explanation")
	}
}

func TestExplainStringRendering(t *testing.T) {
	model := profiledModel(t, mixed, TridentConfig())
	hm := instrByName(t, model.prof.Module, "hm")
	s := model.Explain(hm).String()
	for _, want := range []string{"SDC", "via"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

// TestExplainRendersLargestFirst requires String to list each kind of
// path largest contribution first, although Explain keeps them in walk
// order.
func TestExplainRendersLargestFirst(t *testing.T) {
	prof := kernelProfile(t, "pathfinder")
	m := New(prof, TridentConfig())
	multi := 0
	prof.Module.Instrs(func(in *ir.Instr) {
		if !in.HasResult() || prof.ExecCount[in] == 0 {
			return
		}
		var stores, branches []float64
		for _, line := range strings.Split(m.Explain(in).String(), "\n") {
			if !strings.HasPrefix(line, "  via ") {
				continue
			}
			var pct float64
			rest := line[strings.LastIndex(line, "= ")+2:]
			if _, err := fmt.Sscanf(rest, "%f%%", &pct); err != nil {
				t.Fatalf("%s: unparsable path line %q", in.Pos(), line)
			}
			if strings.HasPrefix(line, "  via flipped ") {
				branches = append(branches, pct)
			} else {
				stores = append(stores, pct)
			}
		}
		for _, pcts := range [][]float64{stores, branches} {
			if !slices.IsSortedFunc(pcts, func(a, b float64) int { return cmp.Compare(b, a) }) {
				t.Errorf("%s: rendered paths not largest first: %v", in.Pos(), pcts)
			}
			if len(pcts) > 1 && pcts[0] > pcts[len(pcts)-1] {
				multi++
			}
		}
	})
	if multi == 0 {
		t.Fatal("no explanation rendered paths of differing contribution")
	}
}
