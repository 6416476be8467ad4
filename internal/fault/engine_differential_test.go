package fault

import (
	"context"
	"testing"

	"trident/internal/interp"
	"trident/internal/ir"
	"trident/internal/progs"
	"trident/internal/refinterp"
)

// The reference-oracle differential suite checks the injector against a
// second, independently written executor: every trial is replayed on
// the naive reference evaluator (internal/refinterp) with the same bit
// flip, classified against the reference golden output, and must match
// the injector's outcome and output hash — whether the injector
// re-executes trials in full, resumes them from golden snapshots, or
// runs them on a single worker.

// refOracle replays trial specs of one injector's module on the
// reference evaluator.
type refOracle struct {
	inj    *Injector
	golden string
}

// newRefOracle runs the reference golden execution and checks it agrees
// with the injector's.
func newRefOracle(t *testing.T, inj *Injector) *refOracle {
	t.Helper()
	res, err := refinterp.Run(inj.module, refinterp.Options{})
	if err != nil {
		t.Fatalf("reference golden run: %v", err)
	}
	if res.Output != inj.GoldenOutput() || res.DynInstrs != inj.GoldenDynInstrs() {
		t.Fatalf("reference golden run diverges: %d instrs, injector %d",
			res.DynInstrs, inj.GoldenDynInstrs())
	}
	return &refOracle{inj: inj, golden: res.Output}
}

// trial flips bit of the instance-th result of target on the reference
// evaluator, under the injector's hang budget, and classifies the run.
func (o *refOracle) trial(t *testing.T, target *ir.Instr, instance uint64, bit int) Detail {
	t.Helper()
	seen := uint64(0)
	res, err := refinterp.Run(o.inj.module, refinterp.Options{
		MaxDynInstrs: o.inj.hangBudget,
		OnResult: func(in *ir.Instr, bits uint64) uint64 {
			if in == target {
				seen++
				if seen == instance {
					bits ^= 1 << uint(bit)
				}
			}
			return bits
		},
	})
	if err != nil {
		t.Fatalf("reference trial %s/%d/%d: %v", target.Pos(), instance, bit, err)
	}
	d := Detail{OutputHash: hashOutput(res.Output)}
	switch res.Outcome {
	case refinterp.OutcomeCrash:
		d.Outcome = Crash
	case refinterp.OutcomeHang:
		d.Outcome = Hang
	case refinterp.OutcomeDetected:
		d.Outcome = Detected
	default:
		d.Outcome = SDC
		if res.Output == o.golden {
			d.Outcome = Benign
		}
	}
	return d
}

// TestDifferentialDecodedEngine runs one random campaign per program in
// three injector configurations (full re-execution, snapshot replay,
// serial worker), requires byte-identical transcripts, and checks every
// trial's outcome against the reference evaluator.
func TestDifferentialDecodedEngine(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 25
	}
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			m := p.Build()
			full, err := New(m, Options{Seed: 42, Workers: 4})
			if err != nil {
				t.Fatalf("full injector: %v", err)
			}
			want, err := full.CampaignRandom(context.Background(), n)
			if err != nil {
				t.Fatalf("full campaign: %v", err)
			}
			oracle := newRefOracle(t, full)
			for i, tr := range want.Trials {
				if ref := oracle.trial(t, tr.Instr, tr.Instance, tr.Bit); ref.Outcome != tr.Outcome {
					t.Errorf("trial %d %s inst=%d bit=%d: outcome %v, reference %v",
						i, tr.Instr.Pos(), tr.Instance, tr.Bit, tr.Outcome, ref.Outcome)
				}
			}
			configs := map[string]Options{
				"snapshot": {Seed: 42, Workers: 4, SnapshotInterval: full.GoldenDynInstrs()/7 + 1},
				"serial":   {Seed: 42, Workers: 1},
			}
			for name, opts := range configs {
				inj, err := New(m, opts)
				if err != nil {
					t.Fatalf("%s injector: %v", name, err)
				}
				res, err := inj.CampaignRandom(context.Background(), n)
				if err != nil {
					t.Fatalf("%s campaign: %v", name, err)
				}
				if got, w := transcript(res), transcript(want); got != w {
					t.Errorf("%s campaign transcript diverges from full re-execution\nfull:\n%s\n%s:\n%s",
						name, w, name, got)
				}
			}
		})
	}
}

// TestDifferentialDecodedPerTrial compares individual InjectDetail
// observations — outcome and output hash — of a snapshot-replay
// injector with the reference evaluator for the same sampled fault
// points.
func TestDifferentialDecodedPerTrial(t *testing.T) {
	perProg := 30
	if testing.Short() {
		perProg = 10
	}
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			m := p.Build()
			inj, err := New(m, Options{Seed: 7, SnapshotInterval: 2048})
			if err != nil {
				t.Fatal(err)
			}
			oracle := newRefOracle(t, inj)
			for _, spec := range inj.sampleRandom(perProg) {
				d, err := inj.InjectDetail(context.Background(), spec.instr, spec.instance, spec.bit)
				if err != nil {
					t.Fatalf("trial %s/%d/%d: %v", spec.instr.Pos(), spec.instance, spec.bit, err)
				}
				ref := oracle.trial(t, spec.instr, spec.instance, spec.bit)
				if d.Outcome != ref.Outcome || d.OutputHash != ref.OutputHash {
					t.Errorf("trial %s inst=%d bit=%d diverges: injector %+v, reference %+v",
						spec.instr.Pos(), spec.instance, spec.bit, d, ref)
				}
			}
		})
	}
}

// TestTrialStateReset is the pooled-state hygiene check: a trial state
// dirtied by a previous trial must come out of reset indistinguishable
// from a fresh one. A stale counter or injection flag leaking into the
// next trial fails here.
func TestTrialStateReset(t *testing.T) {
	ts := acquireTrialState()
	defer releaseTrialState(ts)

	stale := &ir.Instr{Op: ir.OpAdd, Type: ir.I32}
	ts.target = stale
	ts.instance = 99
	ts.mask = 0xFF00
	ts.seen = 1234
	ts.injectedAt = 777
	ts.injected = true

	next := &ir.Instr{Op: ir.OpMul, Type: ir.I64}
	ts.reset(next, 3, 5)

	if ts.target != next {
		t.Errorf("target = %v, want the new trial's target", ts.target)
	}
	if ts.instance != 3 {
		t.Errorf("instance = %d, want 3", ts.instance)
	}
	if ts.mask != 1<<5 {
		t.Errorf("mask = %#x, want %#x", ts.mask, uint64(1<<5))
	}
	if ts.seen != 0 {
		t.Errorf("stale seen = %d survived reset", ts.seen)
	}
	if ts.injectedAt != 0 {
		t.Errorf("stale injectedAt = %d survived reset", ts.injectedAt)
	}
	if ts.injected {
		t.Errorf("stale injected flag survived reset")
	}

	// The pooled hook closure must act on the post-reset state.
	got := ts.hook(&interp.Context{}, stale, 0b1)
	if got != 0b1 || ts.seen != 0 {
		t.Errorf("hook matched the stale target after reset (bits=%#b seen=%d)", got, ts.seen)
	}
	for i := uint64(1); i <= 3; i++ {
		got = ts.hook(&interp.Context{DynCount: 10 + i}, next, 0)
	}
	if !ts.injected || got != 1<<5 || ts.injectedAt != 13 {
		t.Errorf("hook did not fire on instance 3 of the new target (injected=%v bits=%#x at=%d)",
			ts.injected, got, ts.injectedAt)
	}

	// Release must drop the target reference.
	releaseTrialState(ts)
	if ts.target != nil {
		t.Errorf("releaseTrialState retained target %v", ts.target)
	}
	ts = acquireTrialState() // rebalance the deferred release
}

// TestTrialStateSequentialReuse re-runs the same trial spec repeatedly
// on one goroutine — forcing pool round-trips through the same state —
// and requires identical observations every time.
func TestTrialStateSequentialReuse(t *testing.T) {
	p := progs.All()[0]
	inj, err := New(p.Build(), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	specs := inj.sampleRandom(5)
	var first []Detail
	for round := 0; round < 3; round++ {
		for i, spec := range specs {
			d, err := inj.InjectDetail(context.Background(), spec.instr, spec.instance, spec.bit)
			if err != nil {
				t.Fatalf("round %d trial %d: %v", round, i, err)
			}
			if round == 0 {
				first = append(first, d)
			} else if d != first[i] {
				t.Errorf("round %d trial %d diverges: %+v vs %+v", round, i, d, first[i])
			}
		}
	}
}
