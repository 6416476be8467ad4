package interp

import (
	"strings"
	"testing"

	"trident/internal/ir"
)

// rejoinProgram keeps every state component a rejoin check compares
// live at once: a callee frame with a parameter and an alloca, a caller
// frame with its own alloca, globals written every iteration, and
// output printed inside the loop.
const rejoinProgram = `
module "rejoin"

global @g i64 x 4

func @work(%x i64) i64 {
entry:
  %buf = alloca i64 x 2
  %p = gep i64, %buf, i64 1
  store %x, %p
  %v = load i64, %p
  %r = add %v, i64 3
  ret %r
}

func @main() void {
entry:
  %keep = alloca i64 x 2
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, loop]
  %r = call @work(%i)
  print %r
  %gp = gep i64, @g, i64 1
  store %r, %gp
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 40
  condbr %c, loop, done
done:
  ret
}
`

// rejoinCandidate returns a golden snapshot of rejoinProgram taken
// inside @work after its alloca and store ran, with output already
// printed, plus every snapshot of the run.
func rejoinCandidate(t *testing.T) (*Snapshot, []*Snapshot) {
	t.Helper()
	m := mustParse(t, rejoinProgram)
	_, snaps := collectSnapshots(t, m, 1, Options{})
	for _, s := range snaps {
		if s.lines >= 3 && len(s.frames) == 2 && len(s.frames[1].allocas) == 1 && s.frames[1].dip >= 3 {
			return s, snaps
		}
	}
	t.Fatal("no snapshot inside @work after output started")
	return nil, nil
}

// TestRejoinStateComparison restores a golden snapshot into a machine,
// which must match it exactly, then changes one state component at a
// time: each change alone must block the rejoin.
func TestRejoinStateComparison(t *testing.T) {
	s, _ := rejoinCandidate(t)
	cases := []struct {
		name   string
		mutate func(vm *machine)
	}{
		{"unchanged", func(*machine) {}},
		{"position", func(vm *machine) { vm.frames[1].dip++ }},
		{"register", func(vm *machine) { vm.frames[0].regs[0] ^= 1 << 40 }},
		{"parameter", func(vm *machine) { vm.frames[1].params[0] ^= 1 }},
		{"alloca base", func(vm *machine) {
			seg := vm.frames[1].allocas[0]
			vm.frames[1].allocas[0] = &Segment{Base: seg.Base + 8, Size: seg.Size, Name: seg.Name}
		}},
		{"memory byte", func(vm *machine) {
			segs := vm.ctx.Mem.segments
			segs[len(segs)-1].data[len(segs[len(segs)-1].data)-1] ^= 0x80
		}},
		{"allocation cursor", func(vm *machine) { vm.ctx.Mem.next += segmentGap }},
		{"dyn results", func(vm *machine) { vm.ctx.DynResults++ }},
		{"line count", func(vm *machine) { vm.ctx.lines++ }},
		{"output byte", func(vm *machine) {
			out := []byte(vm.ctx.output.String())
			out[1] ^= 1
			vm.ctx.output.Reset()
			vm.ctx.output.Write(out)
			vm.outStart = 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vm := restore(s, Options{})
			defer vm.unwind()
			tc.mutate(vm)
			want := tc.name == "unchanged"
			if got := vm.matches(s); got != want {
				t.Errorf("matches = %v, want %v", got, want)
			}
		})
	}
}

// TestRejoinRun drives rejoin through Run: a run whose hooks change
// nothing stops at the first rejoin snapshot, and a run whose fault
// reaches the output never rejoins and completes exactly as it would
// without rejoin candidates.
func TestRejoinRun(t *testing.T) {
	m := mustParse(t, rejoinProgram)
	golden, snaps := collectSnapshots(t, m, 50, Options{})
	if len(snaps) < 3 {
		t.Fatalf("%d snapshots, want at least 3", len(snaps))
	}
	prog := snaps[0].prog

	res, err := Run(m, Options{Decoded: prog, Rejoin: snaps[1:]})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rejoined || res.Outcome != OutcomeOK || res.DynInstrs != snaps[1].DynInstrs() {
		t.Fatalf("unperturbed run: rejoined=%v outcome=%v at %d, want rejoin at %d",
			res.Rejoined, res.Outcome, res.DynInstrs, snaps[1].DynInstrs())
	}
	if !strings.HasPrefix(golden.Output, res.Output) {
		t.Errorf("rejoined output %q is not a prefix of the golden output", res.Output)
	}

	// Flip the first call result: it is printed, so the output diverges
	// for good.
	flip := Hooks{OnResult: func(ctx *Context, in *ir.Instr, bits uint64) uint64 {
		if in.Op == ir.OpCall && ctx.DynResults <= 10 {
			return bits ^ 1<<20
		}
		return bits
	}}
	want, err := Run(m, Options{Hooks: flip})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(m, Options{Decoded: prog, Hooks: flip, Rejoin: snaps})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rejoined {
		t.Fatal("run with corrupted output rejoined")
	}
	assertSameResult(t, "corrupted run", got, want)
	if got.Output == golden.Output {
		t.Fatal("the flip did not reach the output; the case is vacuous")
	}

	// A resumed run compares only the output it produced itself, and
	// rejoins at the next snapshot.
	res, err = Resume(snaps[0], Options{Rejoin: snaps[1:]})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rejoined || res.DynInstrs != snaps[1].DynInstrs() {
		t.Errorf("resumed run: rejoined=%v at %d, want rejoin at %d",
			res.Rejoined, res.DynInstrs, snaps[1].DynInstrs())
	}
}
