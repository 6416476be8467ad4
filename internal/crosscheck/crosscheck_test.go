package crosscheck

import (
	"os"
	"path/filepath"
	"testing"

	"trident/internal/ir"
	"trident/internal/progs"
)

// TestCorpusRandom sweeps randomly generated programs through the
// interpreter oracle and the parser round trip. Short mode keeps CI
// fast; the full run covers a wider seed range.
func TestCorpusRandom(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 40
	}
	rep, err := RunCorpus(Config{RandomPrograms: n, Seed: 1000})
	if err != nil {
		t.Fatalf("RunCorpus: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("divergences found:\n%s", rep)
	}
}

// TestCorpusKernels runs every paper kernel through the oracle, the
// round trip, and the model invariants (ranges and sub-model ordering).
// Short mode (the -race CI tier, where a single traced execution of the
// largest kernels costs seconds) keeps the three smallest kernels; the
// full run covers all eleven.
func TestCorpusKernels(t *testing.T) {
	kernels := progs.All()
	if testing.Short() {
		small := map[string]bool{"libquantum": true, "blackscholes": true, "bfs-parboil": true}
		var subset []progs.Program
		for _, p := range kernels {
			if small[p.Name] {
				subset = append(subset, p)
			}
		}
		kernels = subset
	}
	for _, p := range kernels {
		m := p.Build()
		ms, err := CompareModule(p.Name, m)
		if err != nil {
			t.Fatalf("CompareModule %s: %v", p.Name, err)
		}
		for _, d := range ms {
			t.Errorf("%s", d)
		}
		ms, err = RoundTripModule(p.Name, m)
		if err != nil {
			t.Fatalf("RoundTripModule %s: %v", p.Name, err)
		}
		for _, d := range ms {
			t.Errorf("%s", d)
		}
		if testing.Short() {
			continue
		}
		ms, err = CheckModelInvariants(p.Name, m, 7)
		if err != nil {
			t.Fatalf("model invariants %s: %v", p.Name, err)
		}
		for _, d := range ms {
			t.Errorf("%s", d)
		}
	}
}

// TestProtectionInvariants exercises the metamorphic protection checks
// (full SWIFT-style duplication must preserve golden output, never leak
// an SDC, and agree with the injector's own classification) on a
// random-program sample plus a few kernels. The full kernel set under
// many trials is the CLI's job; the unit test keeps a bounded slice.
func TestProtectionInvariants(t *testing.T) {
	rep, err := RunCorpus(Config{RandomPrograms: 12, Seed: 500, Invariants: true, ProtectTrials: 12})
	if err != nil {
		t.Fatalf("RunCorpus: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("violations found:\n%s", rep)
	}
	if testing.Short() {
		return
	}
	for _, p := range progs.All()[:3] {
		ms, err := CheckProtectionInvariants(p.Name, p.Build(), 7, 8)
		if err != nil {
			t.Fatalf("protection invariants %s: %v", p.Name, err)
		}
		for _, d := range ms {
			t.Errorf("%s", d)
		}
	}
}

// TestCheckpointResumeBitIdentical interrupts a checkpointed campaign
// mid-flight, resumes it, and requires the stitched transcript to be
// bit-identical to the uninterrupted campaign.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	rep, err := RunCorpus(Config{RandomPrograms: 4, Seed: 900, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatalf("RunCorpus: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("violations found:\n%s", rep)
	}
}

// TestCheckpointDirCreated: a sweep with the invariant tier on creates
// a CheckpointDir that does not exist yet instead of failing on it.
func TestCheckpointDirCreated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	rep, err := RunCorpus(Config{RandomPrograms: 1, Seed: 901, Invariants: true, CheckpointDir: dir})
	if err != nil {
		t.Fatalf("RunCorpus: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("violations found:\n%s", rep)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("checkpoint dir: %v", err)
	}
}

// TestRoundTripHexGlobalRegression is the minimized regression for the
// parser divergence the oracle sweep surfaced: hex literals wider than
// the declared element type (e.g. `i8 0xfff`) used to bypass width
// truncation, so the parsed module differed from its printed form. See
// ir.TestParseHexLiteralTruncates for the parser-level pin; this test
// keeps the module on the round-trip path that first exposed it.
func TestRoundTripHexGlobalRegression(t *testing.T) {
	m, err := ir.Parse(`
module "hexreg"
global @g i8 x 2 = [0xfff, 0x1]
func @main() void {
entry:
  %p = gep i8, @g, i64 0
  %v = load i8, %p
  %w = add %v, i8 0xfff
  print %w
  ret
}
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ms, err := RoundTripModule("hexreg", m)
	if err != nil {
		t.Fatalf("RoundTripModule: %v", err)
	}
	for _, d := range ms {
		t.Errorf("%s", d)
	}
	ms, err = CompareModule("hexreg", m)
	if err != nil {
		t.Fatalf("CompareModule: %v", err)
	}
	for _, d := range ms {
		t.Errorf("%s", d)
	}
}
