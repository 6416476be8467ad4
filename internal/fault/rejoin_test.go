package fault

import (
	"context"
	"testing"

	"trident/internal/ir"
	"trident/internal/progs"
	"trident/internal/telemetry"
)

// rejoinFixture exercises the rejoin cases of snapshot-replay trials:
//   - %t is masked by %m and rewritten every iteration, so a flip in it
//     vanishes from the state one iteration later (rejoin);
//   - %s is stored once into its own @dead slot, never read or
//     overwritten, so a flip in it stays in dead memory (Benign, no
//     rejoin);
//   - %c steers the golden run to "keep" every iteration; a flip sends
//     one iteration through "skip", which is as long but writes no
//     register (it stores the zero @zero already holds), so the state
//     later matches golden in everything but DynResults (Benign, rejoin
//     at the golden count);
//   - %d steers the golden run to "near"; a flip sends one iteration
//     through "far", three instructions longer and writing no register,
//     so the state meets golden again three instructions late (Benign,
//     rejoin at a shifted count).
const rejoinFixture = `
module "rejoinfix"

global @dead i64 x 200
global @zero i64 x 1

func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, join]
  %acc = phi i64 [i64 0, entry], [%next, join]
  %t = mul %i, i64 3
  %m = and %t, i64 0
  %s = add %i, i64 7
  %dp = gep i64, @dead, %i
  store %s, %dp
  %c = icmp sge %i, i64 0
  condbr %c, keep, skip
keep:
  %k = add %i, i64 0
  br mid
skip:
  store i64 0, @zero
  br mid
mid:
  %d = icmp sge %i, i64 0
  condbr %d, near, far
near:
  br join
far:
  store i64 0, @zero
  store i64 0, @zero
  store i64 0, @zero
  br join
join:
  %next = add %acc, %i
  %next2 = add %next, %m
  %inc = add %i, i64 1
  %more = icmp slt %inc, i64 200
  condbr %more, loop, done
done:
  print %next2
  ret
}
`

// fixtureInstr returns the instruction of m's main named name.
func fixtureInstr(t *testing.T, m *ir.Module, name string) *ir.Instr {
	t.Helper()
	var found *ir.Instr
	m.Func("main").Instrs(func(in *ir.Instr) {
		if in.Name == name {
			found = in
		}
	})
	if found == nil {
		t.Fatalf("no instruction %%%s", name)
	}
	return found
}

// TestRejoinFixtures injects each case of rejoinFixture into a
// snapshot-replay injector and a full re-execution injector: the
// Details must be equal, and the rejoin counters must move only for the
// cases that rejoin. The far detour also runs under a hang budget one
// instruction short of its full length: the golden suffix from the
// matched snapshot would cross it, so the join is refused and both paths
// classify the trial as a hang.
func TestRejoinFixtures(t *testing.T) {
	m, err := ir.Parse(rejoinFixture)
	if err != nil {
		t.Fatal(err)
	}
	full := newFull(t, m, Options{Seed: 1})
	golden := full.GoldenDynInstrs()
	interval := int(golden/10) + 1
	const detour = 3 // far is three instructions longer than near
	cases := []struct {
		name     string
		instr    string
		instance uint64
		bit      int
		budget   uint64 // hang budget override (0 = the injector's own)
		outcome  Outcome
		rejoin   bool
		shifted  bool
	}{
		{"overwritten", "t", 20, 5, 0, Benign, true, false},
		{"dead memory", "s", 20, 5, 0, Benign, false, false},
		{"control-flow shift", "c", 20, 0, 0, Benign, true, false},
		{"shifted detour", "d", 20, 0, 0, Benign, true, true},
		{"shifted detour at budget", "d", 20, 0, golden + detour, Benign, true, true},
		{"shifted detour over budget", "d", 20, 0, golden + detour - 1, Hang, false, false},
		{"after last snapshot", "t", 200, 5, 0, Benign, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			snap, err := New(m, Options{Seed: 1, SnapshotInterval: interval, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			ref := newFull(t, m, Options{Seed: 1})
			if tc.budget != 0 {
				snap.hangBudget, ref.hangBudget = tc.budget, tc.budget
			}
			in := fixtureInstr(t, m, tc.instr)
			if tc.name == "after last snapshot" {
				if si := snap.snapshotBefore(in, tc.instance); si != len(snap.snaps)-1 {
					t.Fatalf("injection resumes from snapshot %d of %d, want the last", si, len(snap.snaps))
				}
			}
			want, err := ref.InjectDetail(context.Background(), in, tc.instance, tc.bit)
			if err != nil {
				t.Fatal(err)
			}
			got, err := snap.InjectDetail(context.Background(), in, tc.instance, tc.bit)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("snapshot replay %+v, full re-execution %+v", got, want)
			}
			if want.Outcome != tc.outcome {
				t.Errorf("outcome %v, want %v", want.Outcome, tc.outcome)
			}
			rejoined := reg.Counter("fi.trials.rejoined").Load()
			if (rejoined == 1) != tc.rejoin || rejoined > 1 {
				t.Errorf("fi.trials.rejoined = %d, want rejoin %v", rejoined, tc.rejoin)
			}
			if shifted := reg.Counter("fi.trials.rejoined_shifted").Load(); (shifted == 1) != tc.shifted || shifted > 1 {
				t.Errorf("fi.trials.rejoined_shifted = %d, want shifted %v", shifted, tc.shifted)
			}
			saved := reg.Counter("fi.rejoin.saved_instrs").Load()
			if tc.rejoin && (saved == 0 || saved >= golden) {
				t.Errorf("fi.rejoin.saved_instrs = %d, want in (0, %d)", saved, golden)
			}
		})
	}
}

// TestRejoinCoverage runs a snapshot-replay campaign on every paper
// kernel, at the interval and seed of the differential suites' full
// runs, and requires trials to rejoin wherever there are at least two
// snapshots — so those campaigns exercise the rejoin path, not only
// full-length replays. It keeps their 60 trials in short mode too: at
// 25, some kernels draw no rejoining trial.
func TestRejoinCoverage(t *testing.T) {
	const n = 60
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			reg := telemetry.NewRegistry()
			_, snap := diffInjectors(t, p, Options{Seed: 1, Workers: 2, Metrics: reg})
			if snap.Snapshots() < 2 {
				t.Skipf("%d snapshot(s): nothing to rejoin after the injection point", snap.Snapshots())
			}
			if _, err := snap.CampaignRandom(context.Background(), n); err != nil {
				t.Fatal(err)
			}
			r := reg.Counter("fi.trials.rejoined").Load()
			if r == 0 {
				t.Errorf("no trial of %d rejoined the golden run (%d snapshots)", n, snap.Snapshots())
			}
			t.Logf("%d of %d trials rejoined (%d snapshots)", r, n, snap.Snapshots())
		})
	}
}
