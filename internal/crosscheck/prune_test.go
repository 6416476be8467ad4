package crosscheck

import (
	"context"
	"testing"

	"trident/internal/fault"
	"trident/internal/interp"
	"trident/internal/ir"
	"trident/internal/irgen"
	"trident/internal/progs"
	"trident/internal/refinterp"
)

// TestPruneSoundKernels is the BEC soundness oracle over the full
// kernel suite, on the production interpreter ("decoded") and on the
// reference evaluator ("refinterp"): every (instruction, bit) the
// liveness analysis prunes is actually injected (first, last, and a
// middle instance of each) and must classify Benign. A failure here
// means a transfer function in internal/bitlive is unsound and pruned
// campaigns would be silently biased.
func TestPruneSoundKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive injection sweep")
	}
	checks := map[string]func(string, *ir.Module, PruneSoundOptions) ([]Mismatch, int, error){
		"decoded":   CheckPruneSound,
		"refinterp": checkPruneSoundReference,
	}
	for execName, check := range checks {
		execName, check := execName, check
		t.Run(execName, func(t *testing.T) {
			t.Parallel()
			for _, p := range progs.Extended() {
				p := p
				t.Run(p.Name, func(t *testing.T) {
					t.Parallel()
					ms, trials, err := check(p.Name, p.Build(), PruneSoundOptions{InstancesPerBit: 3})
					if err != nil {
						t.Fatal(err)
					}
					for _, d := range ms {
						t.Errorf("%s", d)
					}
					t.Logf("%s/%s: %d pruned-bit injections, all Benign", execName, p.Name, trials)
				})
			}
		})
	}
}

// checkPruneSoundReference is CheckPruneSound with every injection
// executed on the reference evaluator, so the soundness claim is also
// checked against an executor independent of the production
// interpreter.
func checkPruneSoundReference(name string, m *ir.Module, opts PruneSoundOptions) ([]Mismatch, int, error) {
	inj, err := fault.New(m, fault.Options{Seed: 0xB17C0DE})
	if err != nil {
		return nil, 0, err
	}
	// The injector's default hang budget: 10x the golden run, at least
	// 100k instructions.
	budget := max(inj.GoldenDynInstrs()*10, 100_000)
	return sweepPruned(name, m, inj, opts, func(target *ir.Instr, instance uint64, bit int) (fault.Outcome, error) {
		seen := uint64(0)
		res, err := refinterp.Run(m, refinterp.Options{
			MaxDynInstrs: budget,
			OnResult: func(in *ir.Instr, bits uint64) uint64 {
				if in == target {
					if seen++; seen == instance {
						bits ^= 1 << uint(bit)
					}
				}
				return bits
			},
		})
		if err != nil {
			return 0, err
		}
		switch {
		case res.Outcome == refinterp.OutcomeCrash:
			return fault.Crash, nil
		case res.Outcome == refinterp.OutcomeHang:
			return fault.Hang, nil
		case res.Outcome == refinterp.OutcomeDetected:
			return fault.Detected, nil
		case res.Output != inj.GoldenOutput():
			return fault.SDC, nil
		}
		return fault.Benign, nil
	})
}

// TestPrunedCampaignMatchesUnpruned is the exact-reweighting
// differential: the same campaign run with and without PruneBits must
// produce the identical trial transcript — same specs in the same
// order, same outcomes, same counts, rates, and Wilson CIs — with the
// only difference being which Benign trials carry the Pruned flag.
// This is what makes pruned numbers citable as full-activation-space
// numbers rather than estimates over a reduced space.
func TestPrunedCampaignMatchesUnpruned(t *testing.T) {
	for _, name := range []string{"rgb2gray", "nibblepack", "boxblur", "sad"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := progs.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			const n = 400
			run := func(pruneBits bool) *fault.CampaignResult {
				inj, err := fault.New(p.Build(), fault.Options{
					Seed:             42,
					PruneBits:        pruneBits,
					SnapshotInterval: 2048,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := inj.CampaignRandom(context.Background(), n)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			plain, pruned := run(false), run(true)
			if plain.N() != pruned.N() {
				t.Fatalf("trial counts differ: %d vs %d", plain.N(), pruned.N())
			}
			for i := range plain.Trials {
				a, b := plain.Trials[i], pruned.Trials[i]
				// The two campaigns build separate module instances, so specs
				// are compared by stable identity (position), not pointer.
				if a.Instr.Pos() != b.Instr.Pos() || a.Instance != b.Instance || a.Bit != b.Bit {
					t.Fatalf("trial %d sampled different spec: pruning must not touch the sampling stream", i)
				}
				if a.Outcome != b.Outcome {
					t.Errorf("trial %d (%s bit %d): outcome %s unpruned vs %s pruned",
						i, a.Instr.Pos(), a.Bit, a.Outcome, b.Outcome)
				}
				if b.Pruned && b.Outcome != fault.Benign {
					t.Errorf("trial %d pruned but outcome %s", i, b.Outcome)
				}
				if a.Pruned {
					t.Errorf("trial %d carries Pruned flag in an unpruned campaign", i)
				}
			}
			for _, o := range fault.AllOutcomes {
				if plain.Counts[o] != pruned.Counts[o] {
					t.Errorf("count[%s]: %d unpruned vs %d pruned", o, plain.Counts[o], pruned.Counts[o])
				}
			}
			if plain.SDCProb() != pruned.SDCProb() || plain.ErrorBar95() != pruned.ErrorBar95() {
				t.Errorf("rate/CI drift: SDC %v±%v unpruned vs %v±%v pruned",
					plain.SDCProb(), plain.ErrorBar95(), pruned.SDCProb(), pruned.ErrorBar95())
			}
			if pruned.PrunedN() == 0 {
				t.Errorf("campaign pruned no trials on %s; differential is vacuous", name)
			}
			t.Logf("%s: %d/%d trials pruned, identical tallies", name, pruned.PrunedN(), pruned.N())
		})
	}
}

// FuzzBitliveSound feeds random irgen programs to the soundness oracle
// with exhaustive instance coverage: every dynamic instance of every
// pruned bit is injected and must be Benign. Random programs reach
// operand shapes (shift-by-width, compare overflow corners, negative
// sign-extended constants) the kernels never exercise.
func FuzzBitliveSound(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		m := irgen.Generate(irgen.Config{Seed: seed})
		if moduleTooBigToRun(m) {
			return
		}
		// Pre-screen: the oracle needs a terminating, trap-free golden
		// run of tractable length.
		res, err := interp.Run(m, interp.Options{MaxDynInstrs: fuzzRunBudget})
		if err != nil || res.Outcome != interp.OutcomeOK || res.DynResults == 0 {
			return
		}
		ms, _, err := CheckPruneSound("fuzz", m, PruneSoundOptions{Exhaustive: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, d := range ms {
			t.Errorf("seed %d: %s", seed, d)
		}
	})
}
