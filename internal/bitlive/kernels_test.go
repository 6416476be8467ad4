package bitlive_test

import (
	"math/bits"
	"testing"

	"trident/internal/bitlive"
	"trident/internal/interp"
	"trident/internal/ir"
	"trident/internal/progs"
)

// TestKernelPruneFractions runs the analysis over every kernel (paper
// Table I plus the narrow-output micro-kernels) and logs the static and
// activation-weighted masked-bit shares — the numbers EXPERIMENTS.md
// and BENCH_fi.json report. It asserts sanity (analysis runs, masks
// stay within width, the narrow-output kernels prune a substantial
// share); the soundness of every masked bit is enforced by the
// exhaustive oracle in internal/crosscheck.
func TestKernelPruneFractions(t *testing.T) {
	fracs := map[string]float64{}
	for _, p := range progs.Extended() {
		m := p.Build()
		rep := bitlive.Analyze(m)

		execCount := make(map[*ir.Instr]uint64)
		res, err := interp.Run(m, interp.Options{Hooks: interp.Hooks{
			OnResult: func(_ *interp.Context, in *ir.Instr, _ uint64) {
				execCount[in]++
			},
		}})
		if err != nil {
			t.Fatalf("%s: golden run: %v", p.Name, err)
		}
		if res.Outcome != interp.OutcomeOK {
			t.Fatalf("%s: golden run ended in %s", p.Name, res.Outcome)
		}

		st := rep.ModuleStats(m)
		var weighted, total float64
		m.Instrs(func(in *ir.Instr) {
			n := execCount[in]
			if n == 0 || !in.HasResult() {
				return
			}
			w := in.Type.Bits()
			if w < 64 {
				if masked := rep.Masked(in); masked>>uint(w) != 0 {
					t.Errorf("%s: masked %#x exceeds width %d", p.Name, masked, w)
				}
			}
			weighted += float64(n) * float64(bits.OnesCount64(rep.Masked(in))) / float64(w)
			total += float64(n)
		})
		frac := 0.0
		if total > 0 {
			frac = weighted / total
		}
		fracs[p.Name] = frac
		t.Logf("%-14s static %5.1f%% (%d/%d bits)  activation-weighted %5.1f%%",
			p.Name, 100*st.Fraction(), st.MaskedBits, st.Bits, 100*frac)
	}
	// The narrow-output kernels exist to exercise pruning; if their
	// masked share collapses, either the kernels or the analysis
	// regressed. 1/(1-0.167) = 1.2x is the BENCH_fi.json floor.
	for _, name := range []string{"rgb2gray", "nibblepack", "boxblur"} {
		if fracs[name] < 0.167 {
			t.Errorf("%s: activation-weighted masked share %.3f below the 16.7%% pruning floor",
				name, fracs[name])
		}
	}
}
