package crosscheck

import (
	"context"
	"fmt"

	"trident/internal/bitlive"
	"trident/internal/fault"
	"trident/internal/ir"
)

// This file is the BEC soundness oracle for static bit-liveness pruning
// (internal/bitlive, DESIGN.md §5i). The pruning contract is absolute:
// a bit the analysis classifies provably-masked must classify Benign
// under *actual* injection, at every dynamic instance.
// The oracle inverts the optimization — instead of skipping pruned
// bits, it executes exactly those — so an unsound transfer function
// shows up as a non-Benign outcome here before it can silently bias a
// pruned campaign. Inject/InjectDetail never consult the prune report,
// which is what lets the oracle execute bits campaigns would skip.

// PruneSoundOptions bounds one soundness sweep.
type PruneSoundOptions struct {
	// InstancesPerBit caps how many dynamic instances of each pruned
	// (instruction, bit) pair are injected: the first, the last, and
	// evenly spaced instances in between (all of them when the
	// instruction executes at most this many times). 0 means 4.
	InstancesPerBit int
	// Exhaustive injects every dynamic instance of every pruned bit,
	// ignoring InstancesPerBit. Feasible for small programs only; the
	// FuzzBitliveSound target uses it on irgen modules.
	Exhaustive bool
}

// CheckPruneSound injects every (instruction, bit) pair that the
// bit-liveness analysis claims is provably masked and reports a
// mismatch for any outcome other than Benign. It returns the number of
// injections performed alongside the mismatches.
func CheckPruneSound(name string, m *ir.Module, opts PruneSoundOptions) ([]Mismatch, int, error) {
	inj, err := fault.New(m, fault.Options{Seed: 0xB17C0DE})
	if err != nil {
		return nil, 0, fmt.Errorf("crosscheck: prune-sound injector: %w", err)
	}
	ctx := context.Background()
	return sweepPruned(name, m, inj, opts, func(in *ir.Instr, instance uint64, bit int) (fault.Outcome, error) {
		return inj.Inject(ctx, in, instance, bit)
	})
}

// sweepPruned enumerates the pruned (instruction, bit, instance) specs
// of m — targets and execution counts taken from inj's golden run — and
// runs each through inject, reporting every non-Benign outcome.
func sweepPruned(name string, m *ir.Module, inj *fault.Injector, opts PruneSoundOptions,
	inject func(in *ir.Instr, instance uint64, bit int) (fault.Outcome, error)) ([]Mismatch, int, error) {
	per := opts.InstancesPerBit
	if per <= 0 {
		per = 4
	}
	rep := bitlive.Analyze(m)
	var mismatches []Mismatch
	trials := 0
	for _, in := range inj.Targets() {
		masked := rep.Masked(in)
		if masked == 0 {
			continue
		}
		execs := inj.ExecCount(in)
		instances := spreadInstances(execs, uint64(per), opts.Exhaustive)
		w := in.Type.Bits()
		for bit := 0; bit < w; bit++ {
			if masked>>uint(bit)&1 == 0 {
				continue
			}
			for _, instance := range instances {
				out, err := inject(in, instance, bit)
				trials++
				if err != nil {
					return mismatches, trials, fmt.Errorf(
						"crosscheck: prune-sound inject %s bit %d instance %d: %w",
						in.Pos(), bit, instance, err)
				}
				if out != fault.Benign {
					mismatches = append(mismatches, Mismatch{
						Program: name,
						Check: fmt.Sprintf("prune-sound/%s/bit%d@%d",
							in.Pos(), bit, instance),
						Got:  out.String(),
						Want: fault.Benign.String(),
					})
				}
			}
		}
	}
	return mismatches, trials, nil
}

// spreadInstances picks which dynamic instances of one instruction to
// inject: all of them when exhaustive or when there are at most per,
// otherwise per instances evenly spread across [1, execs] including
// both endpoints (first and last executions are where loop-boundary
// liveness bugs hide).
func spreadInstances(execs, per uint64, exhaustive bool) []uint64 {
	if exhaustive || execs <= per {
		out := make([]uint64, execs)
		for i := range out {
			out[i] = uint64(i) + 1
		}
		return out
	}
	out := make([]uint64, 0, per)
	for i := uint64(0); i < per; i++ {
		// 1 + round(i*(execs-1)/(per-1)) spreads endpoints-inclusive.
		inst := 1 + (i*(execs-1)+(per-1)/2)/(per-1)
		if len(out) > 0 && out[len(out)-1] == inst {
			continue
		}
		out = append(out, inst)
	}
	return out
}
