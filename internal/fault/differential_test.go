package fault

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"trident/internal/ir"
	"trident/internal/progs"
)

// The differential suite proves the central claim of the snapshot-replay
// engine: for every benchmark program and multiple seeds, a campaign run
// through golden-state snapshots is bit-identical to the full
// run-from-instruction-zero campaign — same per-trial outcomes, crash
// latencies, output hashes, rates, and error sets.

// newFull builds a full re-execution injector (SnapshotInterval -1) and
// checks it holds no snapshots, so a comparison against it can never
// silently compare snapshot replay with itself.
func newFull(t testing.TB, m *ir.Module, opts Options) *Injector {
	t.Helper()
	opts.SnapshotInterval = -1
	inj, err := New(m, opts)
	if err != nil {
		t.Fatalf("full injector: %v", err)
	}
	if k := inj.Snapshots(); k != 0 {
		t.Fatalf("full re-execution injector holds %d snapshots", k)
	}
	return inj
}

// TestSnapshotIntervalConvention pins Options.SnapshotInterval's
// convention: the zero value selects DefaultSnapshotInterval and holds
// golden snapshots, and a negative value holds none.
func TestSnapshotIntervalConvention(t *testing.T) {
	m := mustProg(t, "pathfinder").Build()
	def, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := def.SnapshotInterval(); got != DefaultSnapshotInterval {
		t.Errorf("Options{} resolves SnapshotInterval to %d, want %d", got, DefaultSnapshotInterval)
	}
	if def.GoldenDynInstrs() < 2*DefaultSnapshotInterval || def.Snapshots() == 0 {
		t.Errorf("Options{} holds %d snapshots over %d golden instructions, want some",
			def.Snapshots(), def.GoldenDynInstrs())
	}
	full := newFull(t, m, Options{})
	if got := full.SnapshotInterval(); got != -1 {
		t.Errorf("SnapshotInterval -1 resolves to %d", got)
	}
}

// diffInjectors builds a full re-execution injector and a snapshot
// injector over the same module and options, and checks the snapshot one
// actually has snapshots (a vacuous pass would just re-execute in full
// twice). Both injectors share one module instance so trial specs
// (instruction pointers) are interchangeable between them.
func diffInjectors(t *testing.T, p progs.Program, opts Options) (full, snap *Injector) {
	t.Helper()
	m := p.Build()
	full = newFull(t, m, opts)
	snapOpts := opts
	if snapOpts.SnapshotInterval == 0 {
		// Aim for several snapshots across the run so trials actually
		// resume from a mix of restore points.
		snapOpts.SnapshotInterval = int(full.GoldenDynInstrs()/7) + 1
	}
	snap, err := New(m, snapOpts)
	if err != nil {
		t.Fatalf("snapshot injector: %v", err)
	}
	if snap.Snapshots() == 0 {
		t.Fatalf("snapshot injector captured no snapshots (golden %d instrs, interval %d)",
			snap.GoldenDynInstrs(), snapOpts.SnapshotInterval)
	}
	return full, snap
}

// TestDifferentialCampaignsAllPrograms runs a random campaign per
// (program, seed) on both paths and requires byte-identical transcripts
// and tallies.
func TestDifferentialCampaignsAllPrograms(t *testing.T) {
	seeds := []uint64{1, 42, 20180625}
	n := 60
	if testing.Short() {
		seeds = seeds[:1]
		n = 25
	}
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				full, snap := diffInjectors(t, p, Options{Seed: seed, Workers: 4})
				lres, err := full.CampaignRandom(context.Background(), n)
				if err != nil {
					t.Fatalf("seed %d: full campaign: %v", seed, err)
				}
				sres, err := snap.CampaignRandom(context.Background(), n)
				if err != nil {
					t.Fatalf("seed %d: snapshot campaign: %v", seed, err)
				}
				if lt, st := transcript(lres), transcript(sres); lt != st {
					t.Errorf("seed %d: campaign transcripts diverge\nlegacy:\n%s\nsnapshot:\n%s",
						seed, lt, st)
				}
				for _, o := range []Outcome{Benign, SDC, Crash, Hang, Detected, Errored} {
					if lc, sc := lres.Counts[o], sres.Counts[o]; lc != sc {
						t.Errorf("seed %d: %v count diverges: full %d, snapshot %d",
							seed, o, lc, sc)
					}
					if lr, sr := lres.Rate(o), sres.Rate(o); lr != sr {
						t.Errorf("seed %d: %v rate diverges: full %v, snapshot %v",
							seed, o, lr, sr)
					}
				}
			}
		})
	}
}

// TestDifferentialPerTrialDetails compares individual trials at the
// InjectDetail level: outcome, crash latency, and the full-output hash
// must match between the snapshot path and the full re-execution path
// for every sampled fault point.
func TestDifferentialPerTrialDetails(t *testing.T) {
	seeds := []uint64{7, 1009}
	perProg := 40
	if testing.Short() {
		seeds = seeds[:1]
		perProg = 15
	}
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				full, snap := diffInjectors(t, p, Options{Seed: seed})
				// Both injectors share the seed, so they sample the same
				// specs; use the full injector's stream as the reference.
				specs := full.sampleRandom(perProg)
				for _, spec := range specs {
					ld, err := full.InjectDetail(context.Background(), spec.instr, spec.instance, spec.bit)
					if err != nil {
						t.Fatalf("seed %d: full trial %s/%d/%d: %v",
							seed, spec.instr.Pos(), spec.instance, spec.bit, err)
					}
					sd, err := snap.InjectDetail(context.Background(), spec.instr, spec.instance, spec.bit)
					if err != nil {
						t.Fatalf("seed %d: snapshot trial %s/%d/%d: %v",
							seed, spec.instr.Pos(), spec.instance, spec.bit, err)
					}
					if ld != sd {
						t.Errorf("seed %d: trial %s inst=%d bit=%d diverges: full %+v, snapshot %+v",
							seed, spec.instr.Pos(), spec.instance, spec.bit, ld, sd)
					}
				}
			}
		})
	}
}

// TestDifferentialSnapshotIntervalSweep fixes one program and sweeps the
// snapshot interval from very dense to sparser-than-the-run: every
// interval must reproduce the full re-execution campaign exactly,
// including the degenerate case where no trial finds a usable snapshot.
func TestDifferentialSnapshotIntervalSweep(t *testing.T) {
	p := progs.All()[0]
	full := newFull(t, p.Build(), Options{Seed: 5})
	want, err := full.CampaignRandom(context.Background(), 40)
	if err != nil {
		t.Fatal(err)
	}
	golden := int(full.GoldenDynInstrs())
	for _, interval := range []int{1, 13, golden / 100, golden / 3, golden, golden * 4} {
		if interval == 0 {
			continue
		}
		snap, err := New(p.Build(), Options{Seed: 5, SnapshotInterval: interval})
		if err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
		res, err := snap.CampaignRandom(context.Background(), 40)
		if err != nil {
			t.Fatalf("interval %d: campaign: %v", interval, err)
		}
		if transcript(res) != transcript(want) {
			t.Errorf("interval %d (%d snapshots): transcript diverges from full re-execution",
				interval, snap.Snapshots())
		}
	}
}

// TestDifferentialCheckpointedCampaign interrupts a snapshot-path
// campaign that is writing a checkpoint log, resumes it (still on the
// snapshot path), and requires the final result to match an undisturbed
// full re-execution campaign — the two persistence mechanisms (trial
// checkpoints and state snapshots) must compose without changing a
// single trial.
func TestDifferentialCheckpointedCampaign(t *testing.T) {
	p := progs.All()[1]
	const n = 40
	full := newFull(t, p.Build(), Options{Seed: 11, Workers: 4})
	want, err := full.CampaignRandom(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "trials.jsonl")
	interval := int(full.GoldenDynInstrs()/5) + 1

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Int64
	interrupted, err := New(p.Build(), Options{
		Seed: 11, Workers: 4, SnapshotInterval: interval,
		TrialHook: func(_ *ir.Instr, _ uint64, _ int, _ int) error {
			if fired.Add(1) == 3*n/4 {
				cancel()
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	partial, err := interrupted.Campaign(ctx, n, Run{Checkpoint: path})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The returned prefix may even be empty if the earliest trials were
	// still in flight at cancellation; the checkpoint log is what carries
	// completed work across sessions.
	if partial.N() >= n {
		t.Fatalf("interrupted campaign completed all %d trials", partial.N())
	}

	resumer, err := New(p.Build(), Options{Seed: 11, Workers: 4, SnapshotInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := resumer.Campaign(context.Background(), n, Run{Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, wantT := transcript(resumed.CampaignResult), transcript(want); got != wantT {
		t.Errorf("resumed snapshot campaign differs from full re-execution run:\n got: %q\nwant: %q", got, wantT)
	}
}
