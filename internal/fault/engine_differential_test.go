package fault

import (
	"context"
	"testing"

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
			full := newFull(t, m, Options{Seed: 42, Workers: 4})
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
				"snapshot": {Seed: 42, Workers: 4, SnapshotInterval: int(full.GoldenDynInstrs()/7) + 1},
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
			inj, err := New(m, Options{Seed: 7})
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

// TestInjectDetailNoLeak runs trials of every kind back to back on one
// snapshot-replay injector — a rejoin, a crash, a trial whose instance
// never executes, dead-memory and control-flow faults — and requires
// each to observe exactly what it observes on an injector that ran
// nothing before it. Fault state now lives in each run's engine; a
// firing flag, execution count or injection point surviving into the
// next trial fails here.
func TestInjectDetailNoLeak(t *testing.T) {
	m, err := ir.Parse(rejoinFixture)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 1, SnapshotInterval: 97}
	specs := []struct {
		instr    string
		instance uint64
		bit      int
	}{
		{"t", 20, 5},   // rejoins
		{"dp", 30, 40}, // crashes
		{"t", 201, 5},  // %t executes 200 times: never fires
		{"s", 20, 5},   // stays in dead memory
		{"c", 20, 0},   // detours through skip
		{"dp", 31, 40},
		{"t", 20, 5},
	}
	type obs struct {
		d   Detail
		err string
	}
	observe := func(inj *Injector, i int) obs {
		sp := specs[i]
		d, err := inj.InjectDetail(context.Background(), fixtureInstr(t, m, sp.instr), sp.instance, sp.bit)
		if err != nil {
			return obs{err: err.Error()}
		}
		return obs{d: d}
	}
	shared, err := New(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		fresh, err := New(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := observe(fresh, i)
		if got := observe(shared, i); got != want {
			t.Errorf("trial %d %+v after %d trials: %+v, fresh injector %+v", i, specs[i], i, got, want)
		}
	}
	if o := observe(shared, 2); o.err == "" {
		t.Errorf("instance 201 of %%t fired: %+v", o.d)
	}
	if o := observe(shared, 1); o.d.Outcome != Crash || o.d.CrashLatency == 0 {
		t.Errorf("crash spec observed %+v, want a crash with latency", o)
	}
}

// TestTrialStateSequentialReuse re-runs the same trial specs repeatedly
// on one goroutine — reusing the engine's pooled frames — and requires
// identical observations every time.
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
