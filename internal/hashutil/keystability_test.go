// Cache-key stability suite: the server's whole-job result cache and the
// checkpoint headers address a campaign by its module hash, the hash of
// the canonical printed module. Keys survive serialization through
// textual IR only if print→parse round trips leave that hash unchanged,
// which this suite proves on every kernel and on a swath of randomly
// generated programs.
package hashutil_test

import (
	"testing"

	"trident/internal/hashutil"
	"trident/internal/ir"
	"trident/internal/irgen"
	"trident/internal/progs"
)

// assertRoundTripStable prints m, reparses it and requires the module
// hash to survive unchanged.
func assertRoundTripStable(t *testing.T, label string, m *ir.Module) {
	t.Helper()
	m2, err := ir.Parse(ir.Print(m))
	if err != nil {
		t.Fatalf("%s: reparse: %v", label, err)
	}
	if hm, hm2 := hashutil.Module(m), hashutil.Module(m2); hm != hm2 {
		t.Errorf("%s: module hash %s → %s across print→parse", label, hashutil.Hex(hm), hashutil.Hex(hm2))
	}
}

func TestRoundTripHashStabilityKernels(t *testing.T) {
	for _, p := range progs.All() {
		assertRoundTripStable(t, p.Name, p.Build())
	}
}

func TestRoundTripHashStabilityGenerated(t *testing.T) {
	n := 50
	if testing.Short() {
		n = 10
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		assertRoundTripStable(t, "irgen", irgen.Generate(irgen.Config{Seed: seed}))
	}
}
