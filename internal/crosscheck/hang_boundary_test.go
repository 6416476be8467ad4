package crosscheck

import (
	"fmt"
	"testing"

	"trident/internal/interp"
	"trident/internal/ir"
	"trident/internal/refinterp"
)

// hangBoundaryClassify runs m under an explicit instruction budget on
// every execution path the engine has — a plain run, the
// snapshot-capture run, a resume from the last captured snapshot — and
// on the naive reference evaluator, and returns the outcome strings
// keyed by path name. The paths must never disagree, at any budget.
func hangBoundaryClassify(t *testing.T, m *ir.Module, budget uint64) map[string]string {
	t.Helper()
	out := make(map[string]string)

	res, err := interp.Run(m, interp.Options{MaxDynInstrs: budget})
	if err != nil {
		t.Fatalf("interp run (budget %d): %v", budget, err)
	}
	out["interp"] = res.Outcome.String()

	var last *interp.Snapshot
	snapRes, err := interp.Run(m, interp.Options{
		MaxDynInstrs:     budget,
		SnapshotInterval: 5,
		OnSnapshot:       func(s *interp.Snapshot) { last = s },
	})
	if err != nil {
		t.Fatalf("snapshot run (budget %d): %v", budget, err)
	}
	out["snapshot"] = snapRes.Outcome.String()

	// No snapshot captured before the budget ⇒ nothing to resume.
	out["resume"] = out["snapshot"]
	if last != nil {
		resRes, err := interp.Resume(last, interp.Options{MaxDynInstrs: budget})
		if err != nil {
			t.Fatalf("resume (budget %d): %v", budget, err)
		}
		out["resume"] = resRes.Outcome.String()
	}

	refRes, err := refinterp.Run(m, refinterp.Options{MaxDynInstrs: budget})
	if err != nil {
		t.Fatalf("reference run (budget %d): %v", budget, err)
	}
	out["refinterp"] = refRes.Outcome.String()
	return out
}

// TestHangBoundary pins the hang-classification boundary: for a program
// whose unbounded run retires exactly D instructions, a budget of D-1
// must classify as Hang, and budgets of D and D+1 must reproduce the
// unbounded classification — identically on the plain path, the
// snapshot-capture path, the snapshot-resume path, and the reference
// evaluator.
func TestHangBoundary(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // outcome of the unbounded run
	}{
		{
			// Straight-line completion: loop retires a known count, exits.
			name: "completes",
			want: "ok",
			src: `
module "hb-ok"
func @main() void {
entry:
  br head
head:
  %i = phi i64 [i64 0, entry], [%inc, body]
  %c = icmp slt %i, i64 12
  condbr %c, body, done
body:
  %inc = add %i, i64 1
  br head
done:
  print %i
  ret
}
`,
		},
		{
			// Crash at a known dynamic position: the final load is out of
			// bounds. Budget just below the trapping instruction must report
			// Hang, at or above it Crash — the trap must not be masked or
			// double-counted at the boundary.
			name: "traps",
			want: "crash",
			src: `
module "hb-crash"
func @main() void {
entry:
  br head
head:
  %i = phi i64 [i64 0, entry], [%inc, body]
  %c = icmp slt %i, i64 9
  condbr %c, body, done
body:
  %inc = add %i, i64 1
  br head
done:
  %p = alloca i32 x 1
  %q = gep i32, %p, i64 64
  %v = load i32, %q
  ret
}
`,
		},
		{
			// Detector fires at a known dynamic position.
			name: "detects",
			want: "detected",
			src: `
module "hb-detect"
func @main() void {
entry:
  br head
head:
  %i = phi i64 [i64 0, entry], [%inc, body]
  %c = icmp slt %i, i64 9
  condbr %c, body, done
body:
  %inc = add %i, i64 1
  br head
done:
  %z = add %i, i64 1
  check %i, %z
  ret
}
`,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := ir.Parse(tc.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			free, err := refinterp.Run(m, refinterp.Options{})
			if err != nil {
				t.Fatalf("unbounded reference run: %v", err)
			}
			if got := free.Outcome.String(); got != tc.want {
				t.Fatalf("unbounded outcome = %s, want %s", got, tc.want)
			}
			d := free.DynInstrs

			for _, row := range []struct {
				budget uint64
				want   string
			}{
				{d - 1, "hang"},
				{d, tc.want},
				{d + 1, tc.want},
			} {
				for path, got := range hangBoundaryClassify(t, m, row.budget) {
					if got != row.want {
						t.Errorf("budget %d (D%+d), %s path: outcome %s, want %s",
							row.budget, int64(row.budget)-int64(d), path, got, row.want)
					}
				}
			}
		})
	}
}

// TestHangBoundaryDynCount pins the count itself: a run that hangs at
// budget B must report exactly B+1 retired dispatches (the budget check
// counts the instruction before refusing to execute it) on both
// interpreters.
func TestHangBoundaryDynCount(t *testing.T) {
	m, err := ir.Parse(`
module "hb-count"
func @main() void {
entry:
  br entry
}
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, budget := range []uint64{1, 5, 100} {
		ref, err := refinterp.Run(m, refinterp.Options{MaxDynInstrs: budget})
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		prod, err := interp.Run(m, interp.Options{MaxDynInstrs: budget})
		if err != nil {
			t.Fatalf("interp run: %v", err)
		}
		for path, r := range map[string]struct {
			outcome string
			dyn     uint64
		}{
			"refinterp": {ref.Outcome.String(), ref.DynInstrs},
			"interp":    {prod.Outcome.String(), prod.DynInstrs},
		} {
			if r.outcome != "hang" {
				t.Errorf("%s at budget %d: outcome %s, want hang", path, budget, r.outcome)
			}
			if want := budget + 1; r.dyn != want {
				t.Errorf("%s at budget %d: DynInstrs %d, want %s", path, budget, r.dyn,
					fmt.Sprint(want))
			}
		}
	}
}
