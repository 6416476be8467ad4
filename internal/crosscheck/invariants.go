package crosscheck

import (
	"context"
	"fmt"
	"math"

	"trident/internal/core"
	"trident/internal/fault"
	"trident/internal/interp"
	"trident/internal/ir"
	"trident/internal/profile"
	"trident/internal/protect"
)

// eps absorbs floating-point noise in the sub-model ordering checks. The
// orderings hold exactly in real arithmetic (the fc terms are
// non-negative and the fm factors are ≤ 1), so any violation beyond
// rounding is a model bug.
const eps = 1e-9

// CheckModelInvariants profiles m and checks the metamorphic invariants
// of the three model variants:
//
//   - every per-instruction SDC and crash probability lies in [0, 1],
//     for fs-only, fs+fc and full TRIDENT alike, as does the overall
//     (exact and sampled) SDC prediction;
//   - fs-only ≤ fs+fc per instruction and overall: the control-flow
//     sub-model only adds non-negative flipped-branch probability mass;
//   - TRIDENT (fs+fc+fm) ≤ fs+fc per instruction and overall: the
//     memory sub-model replaces the "every corrupted store is an SDC"
//     assumption with a propagation factor that is at most 1.
func CheckModelInvariants(name string, m *ir.Module, seed uint64) ([]Mismatch, error) {
	prof, err := profile.Collect(m, profile.Options{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("crosscheck: profile of %s: %w", name, err)
	}
	fsOnly := core.New(prof, core.FSOnlyConfig())
	fsfc := core.New(prof, core.FSFCConfig())
	trident := core.New(prof, core.TridentConfig())
	models := []struct {
		label string
		m     *core.Model
	}{{"fs", fsOnly}, {"fs+fc", fsfc}, {"trident", trident}}

	var out []Mismatch
	m.Instrs(func(in *ir.Instr) {
		if !in.HasResult() {
			return
		}
		for _, mv := range models {
			p := mv.m.InstrSDC(in)
			if math.IsNaN(p) || p < 0 || p > 1 {
				out = append(out, Mismatch{Program: name,
					Check: "model-range/" + mv.label + "/sdc",
					Got:   fmt.Sprintf("%s p=%v", in.Pos(), p), Want: "p in [0,1]"})
			}
			c := mv.m.InstrCrash(in)
			if math.IsNaN(c) || c < 0 || c > 1 {
				out = append(out, Mismatch{Program: name,
					Check: "model-range/" + mv.label + "/crash",
					Got:   fmt.Sprintf("%s p=%v", in.Pos(), c), Want: "p in [0,1]"})
			}
		}
		pFS := fsOnly.InstrSDC(in)
		pFSFC := fsfc.InstrSDC(in)
		pTri := trident.InstrSDC(in)
		if pFS > pFSFC+eps {
			out = append(out, Mismatch{Program: name, Check: "model-order/fs<=fs+fc",
				Got:  fmt.Sprintf("%s fs=%v", in.Pos(), pFS),
				Want: fmt.Sprintf("<= fs+fc=%v", pFSFC)})
		}
		if pTri > pFSFC+eps {
			out = append(out, Mismatch{Program: name, Check: "model-order/trident<=fs+fc",
				Got:  fmt.Sprintf("%s trident=%v", in.Pos(), pTri),
				Want: fmt.Sprintf("<= fs+fc=%v", pFSFC)})
		}
	})

	var overall [3]float64
	for i, mv := range models {
		exact := mv.m.OverallSDC(0, seed).SDC
		sampled := mv.m.OverallSDC(500, seed).SDC
		for _, p := range []float64{exact, sampled} {
			if math.IsNaN(p) || p < 0 || p > 1 {
				out = append(out, Mismatch{Program: name,
					Check: "model-range/" + mv.label + "/overall",
					Got:   fmt.Sprintf("p=%v", p), Want: "p in [0,1]"})
			}
		}
		overall[i] = exact
	}
	if overall[0] > overall[1]+eps {
		out = append(out, Mismatch{Program: name, Check: "model-order/overall-fs<=fs+fc",
			Got: fmt.Sprint(overall[0]), Want: "<= " + fmt.Sprint(overall[1])})
	}
	if overall[2] > overall[1]+eps {
		out = append(out, Mismatch{Program: name, Check: "model-order/overall-trident<=fs+fc",
			Got: fmt.Sprint(overall[2]), Want: "<= " + fmt.Sprint(overall[1])})
	}
	return out, nil
}

// protectedPairs returns, for a module produced by protect.Apply with
// every eligible instruction selected, the original instructions that
// carry a shadow duplicate (name + ".shadow" exists in the same
// function).
func protectedPairs(m *ir.Module) []*ir.Instr {
	var out []*ir.Instr
	for _, fn := range m.Funcs {
		shadows := map[string]bool{}
		fn.Instrs(func(in *ir.Instr) {
			if in.HasResult() {
				shadows[in.Name] = true
			}
		})
		fn.Instrs(func(in *ir.Instr) {
			if in.HasResult() && shadows[in.Name+".shadow"] {
				out = append(out, in)
			}
		})
	}
	return out
}

// ProtectEligible returns every instruction of m the duplication pass
// accepts: register-writing, not an alloca (duplicating would double the
// allocation) and not a call (side effects).
func ProtectEligible(m *ir.Module) []*ir.Instr {
	var sel []*ir.Instr
	m.Instrs(func(in *ir.Instr) {
		if in.HasResult() && in.Op != ir.OpAlloca && in.Op != ir.OpCall {
			sel = append(sel, in)
		}
	})
	return sel
}

// CheckProtectionInvariants applies full SWIFT-style duplication to m
// (every eligible instruction selected) and checks the protection
// metamorphic invariants:
//
//   - the protected module's fault-free output equals the original's;
//   - flipping any bit of any protected register (original or shadow)
//     never produces an SDC — the run either stays benign (output
//     identical), is caught by a check (Detected), or crashes/hangs in
//     the window before the check fires;
//   - a Detected run's partial output is a prefix of the golden output
//     (detection cannot come after corrupted output escaped);
//   - the production fault injector classifies each such trial the same
//     way a direct instrumented interpreter run does.
//
// trials bounds the number of injection trials (spread deterministically
// over the protected registers).
func CheckProtectionInvariants(name string, m *ir.Module, seed uint64, trials int) ([]Mismatch, error) {
	sel := ProtectEligible(m)
	if len(sel) == 0 {
		return nil, nil
	}
	prot, err := protect.Apply(m, sel)
	if err != nil {
		return nil, fmt.Errorf("crosscheck: protect %s: %w", name, err)
	}

	var out []Mismatch
	origGolden, err := interp.Run(m, interp.Options{})
	if err != nil {
		return nil, fmt.Errorf("crosscheck: golden run of %s: %w", name, err)
	}
	golden, err := interp.Run(prot, interp.Options{})
	if err != nil {
		return nil, fmt.Errorf("crosscheck: protected golden run of %s: %w", name, err)
	}
	if golden.Outcome != interp.OutcomeOK || golden.Output != origGolden.Output {
		out = append(out, Mismatch{Program: name, Check: "protect-golden-output",
			Got:  fmt.Sprintf("outcome=%s output=%q", golden.Outcome, golden.Output),
			Want: fmt.Sprintf("outcome=ok output=%q", origGolden.Output)})
		return out, nil
	}

	// The production injector supplies the hang budget and the
	// classification we cross-validate against.
	inj, err := fault.New(prot, fault.Options{Seed: seed, Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("crosscheck: injector on protected %s: %w", name, err)
	}

	// Count dynamic executions of each protected register.
	execCount := map[*ir.Instr]uint64{}
	if _, err := interp.Run(prot, interp.Options{
		Hooks: interp.Hooks{
			OnResult: func(_ *interp.Context, in *ir.Instr, bits uint64) uint64 {
				execCount[in]++
				return bits
			},
		},
	}); err != nil {
		return nil, fmt.Errorf("crosscheck: counting run of %s: %w", name, err)
	}
	var targets []*ir.Instr
	for _, in := range protectedPairs(prot) {
		if execCount[in] > 0 {
			targets = append(targets, in)
		}
	}
	if len(targets) == 0 {
		return out, nil
	}

	r := seed*0x9E3779B97F4A7C15 + 0xDA3E39CB94B95BDB
	nextRand := func(n uint64) uint64 {
		r ^= r >> 12
		r ^= r << 25
		r ^= r >> 27
		return (r * 0x2545F4914F6CDD1D) % n
	}
	if trials <= 0 {
		trials = 32
	}
	for t := 0; t < trials; t++ {
		target := targets[int(nextRand(uint64(len(targets))))]
		instance := 1 + nextRand(execCount[target])
		bit := 0
		if w := target.Type.Bits(); w > 1 {
			bit = int(nextRand(uint64(w)))
		}
		spec := fmt.Sprintf("%s inst=%d bit=%d", target.Pos(), instance, bit)

		// Direct instrumented run, mirroring the injector's budget.
		var seen uint64
		injected := false
		res, err := interp.Run(prot, interp.Options{
			MaxDynInstrs: inj.GoldenDynInstrs() * 10,
			Hooks: interp.Hooks{
				OnResult: func(_ *interp.Context, in *ir.Instr, bits uint64) uint64 {
					if injected || in != target {
						return bits
					}
					seen++
					if seen != instance {
						return bits
					}
					injected = true
					return bits ^ (1 << uint(bit))
				},
			},
		})
		if err != nil {
			return nil, fmt.Errorf("crosscheck: protected trial run of %s: %w", name, err)
		}
		var manual fault.Outcome
		switch res.Outcome {
		case interp.OutcomeOK:
			if res.Output == golden.Output {
				manual = fault.Benign
			} else {
				manual = fault.SDC
			}
		case interp.OutcomeCrash:
			manual = fault.Crash
		case interp.OutcomeHang:
			manual = fault.Hang
		case interp.OutcomeDetected:
			manual = fault.Detected
		}

		if manual == fault.SDC {
			out = append(out, Mismatch{Program: name, Check: "protect-no-sdc",
				Got:  fmt.Sprintf("%s -> SDC output=%q", spec, res.Output),
				Want: fmt.Sprintf("benign/detected/crash/hang, golden=%q", golden.Output)})
		}
		if res.Outcome == interp.OutcomeDetected && !isPrefix(res.Output, golden.Output) {
			out = append(out, Mismatch{Program: name, Check: "protect-detected-prefix",
				Got:  fmt.Sprintf("%s -> output %q", spec, res.Output),
				Want: fmt.Sprintf("prefix of golden %q", golden.Output)})
		}

		// Cross-validate the production injector's classification.
		fo, err := inj.Inject(context.Background(), target, instance, bit)
		if err != nil {
			return nil, fmt.Errorf("crosscheck: injector trial %s of %s: %w", spec, name, err)
		}
		if fo != manual {
			out = append(out, Mismatch{Program: name, Check: "protect-classify",
				Got:  fmt.Sprintf("%s -> injector=%s", spec, fo),
				Want: fmt.Sprintf("direct-run=%s", manual)})
		}
	}
	return out, nil
}

func isPrefix(p, s string) bool {
	return len(p) <= len(s) && s[:len(p)] == p
}

// CheckCheckpointResume runs a random campaign twice — once
// uninterrupted with full re-execution, once with snapshot replay,
// interrupted partway and resumed from its JSONL checkpoint — and
// requires bit-identical trial transcripts. dir is a
// scratch directory for the checkpoint log; interruptAfter is the trial
// count after which the first run cancels itself.
func CheckCheckpointResume(name string, m *ir.Module, seed uint64, n, interruptAfter int, dir string) ([]Mismatch, error) {
	injFull, err := fault.New(m, fault.Options{Seed: seed, Workers: 2, SnapshotInterval: -1})
	if err != nil {
		return nil, fmt.Errorf("crosscheck: injector on %s: %w", name, err)
	}
	if k := injFull.Snapshots(); k != 0 {
		return nil, fmt.Errorf("crosscheck: full re-execution injector on %s holds %d snapshots", name, k)
	}
	full, err := injFull.CampaignRandom(context.Background(), n)
	if err != nil {
		return nil, fmt.Errorf("crosscheck: uninterrupted campaign on %s: %w", name, err)
	}

	path := dir + "/" + name + ".ckpt.jsonl"
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	injA, err := fault.New(m, fault.Options{Seed: seed, Workers: 2,
		OnProgress: func(p fault.Progress) {
			if p.Done >= interruptAfter {
				cancel()
			}
		}})
	if err != nil {
		return nil, fmt.Errorf("crosscheck: injector on %s: %w", name, err)
	}
	if _, err := injA.Campaign(cctx, n, fault.Run{Checkpoint: path}); err != nil && cctx.Err() == nil {
		return nil, fmt.Errorf("crosscheck: interrupted campaign on %s: %w", name, err)
	}

	injB, err := fault.New(m, fault.Options{Seed: seed, Workers: 2})
	if err != nil {
		return nil, fmt.Errorf("crosscheck: injector on %s: %w", name, err)
	}
	resumed, err := injB.Campaign(context.Background(), n, fault.Run{Checkpoint: path, Resume: true})
	if err != nil {
		return nil, fmt.Errorf("crosscheck: resumed campaign on %s: %w", name, err)
	}

	var out []Mismatch
	if len(resumed.Trials) != len(full.Trials) {
		out = append(out, Mismatch{Program: name, Check: "checkpoint-trial-count",
			Got: fmt.Sprint(len(resumed.Trials)), Want: fmt.Sprint(len(full.Trials))})
		return out, nil
	}
	for i := range full.Trials {
		a, b := full.Trials[i], resumed.Trials[i]
		if a.Instr.Pos() != b.Instr.Pos() || a.Instance != b.Instance || a.Bit != b.Bit ||
			a.Outcome != b.Outcome || a.CrashLatency != b.CrashLatency {
			out = append(out, Mismatch{Program: name,
				Check: fmt.Sprintf("checkpoint-trial[%d]", i),
				Got: fmt.Sprintf("%s inst=%d bit=%d %s lat=%d",
					b.Instr.Pos(), b.Instance, b.Bit, b.Outcome, b.CrashLatency),
				Want: fmt.Sprintf("%s inst=%d bit=%d %s lat=%d",
					a.Instr.Pos(), a.Instance, a.Bit, a.Outcome, a.CrashLatency)})
			break
		}
	}
	return out, nil
}
