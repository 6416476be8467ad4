package crosscheck

import (
	"context"
	"fmt"

	"trident/internal/fault"
	"trident/internal/ir"
	"trident/internal/telemetry"
)

// rejoinTrials is the campaign size of the rejoin check per program.
const rejoinTrials = 30

// CheckRejoin is the campaign-level oracle for snapshot-replay rejoin
// (DESIGN.md §5c): it runs the same n-trial random campaign on m with
// full re-execution and with snapshot replay at about seven golden
// snapshots per run, where trials stop early once their state rejoins
// the golden run, and requires every trial's Detail — outcome, crash
// latency and output hash — to be identical on both paths. It returns
// the mismatches and the number of snapshot-replay trials that
// rejoined.
func CheckRejoin(name string, m *ir.Module, seed uint64, n int) ([]Mismatch, uint64, error) {
	full, err := fault.New(m, fault.Options{Seed: seed, Workers: 2, SnapshotInterval: -1})
	if err != nil {
		return nil, 0, fmt.Errorf("crosscheck: rejoin injector on %s: %w", name, err)
	}
	if k := full.Snapshots(); k != 0 {
		return nil, 0, fmt.Errorf("crosscheck: full re-execution injector on %s holds %d snapshots", name, k)
	}
	reg := telemetry.NewRegistry()
	snap, err := fault.New(m, fault.Options{
		Seed: seed, Workers: 2, Metrics: reg,
		SnapshotInterval: int(full.GoldenDynInstrs()/7) + 1,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("crosscheck: rejoin snapshot injector on %s: %w", name, err)
	}
	ctx := context.Background()
	want, err := full.CampaignRandom(ctx, n)
	if err != nil {
		return nil, 0, err
	}
	got, err := snap.CampaignRandom(ctx, n)
	if err != nil {
		return nil, 0, err
	}
	rejoined := reg.Counter("fi.trials.rejoined").Load()
	var out []Mismatch
	if len(got.Trials) != len(want.Trials) || len(got.Errs) != len(want.Errs) {
		out = append(out, Mismatch{Program: name, Check: "rejoin-trials",
			Got:  fmt.Sprintf("%d trials, %d errors", len(got.Trials), len(got.Errs)),
			Want: fmt.Sprintf("%d trials, %d errors", len(want.Trials), len(want.Errs))})
		return out, rejoined, nil
	}
	for i, w := range want.Trials {
		g := got.Trials[i]
		check := fmt.Sprintf("rejoin-trial[%d]", i)
		if g != w {
			out = append(out, Mismatch{Program: name, Check: check,
				Got: injectionString(g), Want: injectionString(w)})
			continue
		}
		// The campaign record carries no output hash; inject the spec
		// again on both paths for the complete Detail.
		wd, err := full.InjectDetail(ctx, w.Instr, w.Instance, w.Bit)
		if err != nil {
			return nil, 0, err
		}
		gd, err := snap.InjectDetail(ctx, w.Instr, w.Instance, w.Bit)
		if err != nil {
			return nil, 0, err
		}
		if gd != wd {
			out = append(out, Mismatch{Program: name, Check: check,
				Got: fmt.Sprintf("%+v", gd), Want: fmt.Sprintf("%+v", wd)})
		}
	}
	return out, rejoined, nil
}

func injectionString(in fault.Injection) string {
	return fmt.Sprintf("%s inst=%d bit=%d %s lat=%d",
		in.Instr.Pos(), in.Instance, in.Bit, in.Outcome, in.CrashLatency)
}
