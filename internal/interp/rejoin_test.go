package interp

import (
	"slices"
	"strings"
	"testing"

	"trident/internal/decoded"
	"trident/internal/ir"
)

// rejoinProgram keeps every state component a rejoin check compares
// live at a loop header: @work's own loop header is entered with a
// callee frame holding a parameter and an alloca, under a caller frame
// with its own alloca; globals are written every iteration and output is
// printed inside main's loop. %dead is written every main iteration and
// never read, so a flip in it leaves the state one iteration later.
const rejoinProgram = `
module "rejoin"

global @g i64 x 4

func @work(%x i64) i64 {
entry:
  %buf = alloca i64 x 2
  %p = gep i64, %buf, i64 1
  store %x, %p
  br spin
spin:
  %k = phi i64 [i64 0, entry], [%k1, spin]
  %v = load i64, %p
  %w = add %v, %k
  store %w, %p
  %k1 = add %k, i64 1
  %more = icmp slt %k1, i64 3
  condbr %more, spin, out
out:
  %r = load i64, %p
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
  %dead = mul %i, i64 3
  %gp = gep i64, @g, i64 1
  store %r, %gp
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 40
  condbr %c, loop, done
done:
  ret
}
`

// mainInstr returns the instruction of m's main named name.
func mainInstr(t *testing.T, m *ir.Module, name string) *ir.Instr {
	t.Helper()
	return funcInstr(t, m.Func("main"), name)
}

// funcInstr returns the instruction of fn named name.
func funcInstr(t *testing.T, fn *ir.Func, name string) *ir.Instr {
	t.Helper()
	var found *ir.Instr
	fn.Instrs(func(in *ir.Instr) {
		if in.Name == name {
			found = in
		}
	})
	if found == nil {
		t.Fatalf("no instruction %%%s in %s", name, fn.Name)
	}
	return found
}

// rejoinCandidate returns a golden snapshot of rejoinProgram taken at
// @work's loop header after its alloca and store ran, with output
// already printed.
func rejoinCandidate(t *testing.T) *Snapshot {
	t.Helper()
	m := mustParse(t, rejoinProgram)
	_, snaps := collectSnapshots(t, m, 1, Options{})
	for _, s := range snaps {
		if s.lines >= 3 && len(s.frames) == 2 && len(s.frames[1].allocas) == 1 {
			return s
		}
	}
	t.Fatal("no snapshot inside @work after output started")
	return nil
}

// TestRejoinStateComparison restores a golden snapshot into a machine,
// which must match it exactly, then changes one state component at a
// time: each change alone must block the rejoin, except the two dynamic
// counters and dead registers, which the comparison leaves out on
// purpose (a run may rejoin at a shifted count, and the budget check
// covers the counts; a dead register is rewritten before any read).
func TestRejoinStateComparison(t *testing.T) {
	s := rejoinCandidate(t)
	reg := func(frame int, name string) int {
		return funcInstr(t, s.frames[frame].fn.Ref, name).ID
	}
	cases := []struct {
		name   string
		mutate func(vm *machine)
		match  bool
	}{
		{"unchanged", func(*machine) {}, true},
		{"position", func(vm *machine) { vm.frames[1].dip++ }, false},
		// main, suspended at the call, reads %i after it returns.
		{"register", func(vm *machine) { vm.frames[0].regs[reg(0, "i")] ^= 1 << 40 }, false},
		{"top register", func(vm *machine) { vm.frames[1].regs[reg(1, "k")] ^= 1 }, false},
		// main never reads %keep again, %dead is written after the call
		// returns and %r is the call's own result; @work's %k1 is
		// rewritten before the next read of it.
		{"dead register", func(vm *machine) {
			for _, name := range []string{"keep", "dead", "r"} {
				vm.frames[0].regs[reg(0, name)] ^= 1 << 40
			}
			vm.frames[1].regs[reg(1, "k1")] ^= 1
		}, true},
		{"parameter", func(vm *machine) { vm.frames[1].params[0] ^= 1 }, false},
		{"alloca base", func(vm *machine) {
			seg := vm.frames[1].allocas[0]
			vm.frames[1].allocas[0] = &Segment{Base: seg.Base + 8, Size: seg.Size, Name: seg.Name}
		}, false},
		{"memory byte", func(vm *machine) {
			segs := vm.ctx.Mem.segments
			segs[len(segs)-1].data[len(segs[len(segs)-1].data)-1] ^= 0x80
		}, false},
		{"allocation cursor", func(vm *machine) { vm.ctx.Mem.next += segmentGap }, false},
		{"dyn results", func(vm *machine) { vm.ctx.DynResults++ }, true},
		{"dyn count", func(vm *machine) { vm.ctx.DynCount += 5 }, true},
		{"line count", func(vm *machine) { vm.ctx.lines++ }, false},
		{"output byte", func(vm *machine) {
			out := []byte(vm.ctx.output.String())
			out[1] ^= 1
			vm.ctx.output.Reset()
			vm.ctx.output.Write(out)
			vm.outStart = 0
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vm := restore(s, Options{})
			defer vm.unwind()
			tc.mutate(vm)
			if got := vm.sameState(s); got != tc.match {
				t.Errorf("sameState = %v, want %v", got, tc.match)
			}
		})
	}
}

// TestSnapshotsAtLoopHeaders checks the capture placement rejoin relies
// on: every snapshot sits at the entry of a block with a phi prologue,
// after the prologue ran, and the join index files it under that block.
func TestSnapshotsAtLoopHeaders(t *testing.T) {
	m := mustParse(t, rejoinProgram)
	golden, snaps := collectSnapshots(t, m, 7, Options{})
	if len(snaps) < 10 {
		t.Fatalf("%d snapshots, want at least 10", len(snaps))
	}
	for i, s := range snaps {
		top := s.top()
		if top.dip != 0 || top.blk.NPhi == 0 {
			t.Errorf("snapshot %d @%d at %s+%d, want a phi-prologue block entry",
				i, s.dynCount, top.blk.Ref.Name, top.dip)
		}
		if i > 0 && s.dynCount < snaps[i-1].dynCount+7 {
			t.Errorf("snapshot %d @%d closer than the interval to @%d", i, s.dynCount, snaps[i-1].dynCount)
		}
	}
	j := NewJoinIndex(snaps, golden.DynInstrs)
	filed := 0
	for id, bj := range j.blocks {
		if bj == nil {
			continue
		}
		var blk *decoded.Block
		for _, sl := range bj.slots {
			if s := sl.snap; s != nil {
				filed++
				blk = s.top().blk
				if int(blk.ID) != id {
					t.Errorf("snapshot @%d filed under block %d, captured at block %d", s.dynCount, id, blk.ID)
				}
			}
		}
		for _, phi := range blk.Ref.Instrs[:blk.NPhi] {
			if _, live := slices.BinarySearch(blk.LiveIn, int32(phi.ID)); live && !slices.Contains(bj.keys, int32(phi.ID)) {
				t.Errorf("block %d does not compare its live phi %%%s first", id, phi.Name)
			}
		}
		for _, r := range bj.keys {
			if _, live := slices.BinarySearch(blk.LiveIn, r); !live {
				t.Errorf("block %d compares dead register %d first", id, r)
			}
		}
	}
	if filed != len(snaps) {
		t.Errorf("join index holds %d snapshots, want %d", filed, len(snaps))
	}
}

// TestRejoinRun drives rejoin through Run and Resume: a fault that the
// program overwrites rejoins at the golden count; no run compares state
// before its fault fires — a fault-free run, however often it equals a
// snapshot, and a run whose late fault reaches the output never rejoin,
// and both complete exactly as they would without a join index.
func TestRejoinRun(t *testing.T) {
	m := mustParse(t, rejoinProgram)
	golden, snaps := collectSnapshots(t, m, 50, Options{})
	if len(snaps) < 3 {
		t.Fatalf("%d snapshots, want at least 3", len(snaps))
	}
	prog := snaps[0].prog
	join := NewJoinIndex(snaps, golden.DynInstrs)
	dead := mainInstr(t, m, "dead")

	// No fault: the run equals the golden run at every snapshot but must
	// not stop at any of them.
	res, err := Run(m, Options{Decoded: prog, Join: join})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejoined || res.Injected {
		t.Fatalf("fault-free run: rejoined=%v injected=%v, want neither", res.Rejoined, res.Injected)
	}
	assertSameResult(t, "fault-free run", res, golden)

	// A flip in %dead is overwritten one iteration later.
	fault := Fault{Target: dead, Instance: 5, Mask: 1 << 40}
	res, err = Run(m, Options{Decoded: prog, Join: join, Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rejoined || !res.Injected || res.Outcome != OutcomeOK {
		t.Fatalf("overwritten fault: rejoined=%v injected=%v outcome=%v, want a rejoin",
			res.Rejoined, res.Injected, res.Outcome)
	}
	if res.JoinedAt != res.DynInstrs || res.JoinedAt <= res.InjectedAt {
		t.Errorf("joined at snapshot @%d, run at %d, injected at %d: want an aligned join after the fault",
			res.JoinedAt, res.DynInstrs, res.InjectedAt)
	}
	if !strings.HasPrefix(golden.Output, res.Output) {
		t.Errorf("rejoined output %q is not a prefix of the golden output", res.Output)
	}

	// Flip a call result late in the run: it is printed, so the output
	// diverges for good. Before the fault fires the run passes every
	// earlier snapshot in the golden state, and must not stop there.
	flip := Fault{Target: mainInstr(t, m, "r"), Instance: 30, Mask: 1 << 20}
	want, err := Run(m, Options{Fault: flip})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(m, Options{Decoded: prog, Fault: flip, Join: join})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rejoined {
		t.Fatal("run with corrupted output rejoined")
	}
	assertSameResult(t, "corrupted run", got, want)
	if got.Output == golden.Output || !got.Injected || got.InjectedAt != want.InjectedAt {
		t.Fatalf("the flip did not reach the output (injected=%v at %d); the case is vacuous",
			got.Injected, got.InjectedAt)
	}

	// A resumed run counts the target's executions from the snapshot's
	// tally, compares only the output it produced itself, and rejoins.
	var s *Snapshot
	for _, c := range snaps {
		if len(c.frames) == 1 && c.top().regs[mainInstr(t, m, "i").ID] > 2 {
			s = c
			break
		}
	}
	if s == nil {
		t.Fatal("no snapshot at main's loop header")
	}
	iter := s.top().regs[mainInstr(t, m, "i").ID]
	res, err = Resume(s, Options{Join: join, Fault: Fault{Target: dead, Instance: iter + 2, Seen: iter, Mask: 1 << 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rejoined || !res.Injected || res.DynInstrs <= s.DynInstrs() {
		t.Errorf("resumed run: rejoined=%v injected=%v at %d, want a rejoin after @%d",
			res.Rejoined, res.Injected, res.DynInstrs, s.DynInstrs())
	}
	full, err := Run(m, Options{Fault: Fault{Target: dead, Instance: iter + 2, Mask: 1 << 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.InjectedAt != full.InjectedAt {
		t.Errorf("resumed run injected at %d, full run at %d", res.InjectedAt, full.InjectedAt)
	}
}

// shiftProgram's golden run takes the short arm of its branch every
// iteration. A flipped %c sends one iteration through the long arm,
// which is three instructions longer and writes no register, so the
// state meets the golden run again at the next loop header, three
// instructions later than the golden run got there.
const shiftProgram = `
module "shift"

global @z i64 x 1

func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, join]
  %c = icmp sge %i, i64 0
  condbr %c, short, long
short:
  br join
long:
  store i64 0, @z
  store i64 0, @z
  store i64 0, @z
  br join
join:
  %inc = add %i, i64 1
  %more = icmp slt %inc, i64 300
  condbr %more, loop, done
done:
  print %inc
  ret
}
`

// TestRejoinShiftedBudget joins a run at a shifted count and pins the
// budget rule at its boundary: the join stands when the golden suffix
// from the matched snapshot fits MaxDynInstrs exactly, and one
// instruction less refuses it, so the run goes on and hangs, as the run
// without a join index does.
func TestRejoinShiftedBudget(t *testing.T) {
	m := mustParse(t, shiftProgram)
	golden, snaps := collectSnapshots(t, m, 40, Options{})
	join := NewJoinIndex(snaps, golden.DynInstrs)
	fault := Fault{Target: mainInstr(t, m, "c"), Instance: 20, Mask: 1}
	full, err := Run(m, Options{Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	if full.Output != golden.Output || full.DynInstrs != golden.DynInstrs+3 {
		t.Fatalf("detour run: %d instructions, want the golden %d plus 3", full.DynInstrs, golden.DynInstrs)
	}
	for _, tc := range []struct {
		budget uint64
		join   bool
	}{
		{full.DynInstrs, true},
		{full.DynInstrs - 1, false},
	} {
		opts := Options{Decoded: snaps[0].prog, MaxDynInstrs: tc.budget, Fault: fault}
		want, err := Run(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Join = join
		got, err := Run(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rejoined != tc.join {
			t.Fatalf("budget %d: rejoined=%v, want %v", tc.budget, got.Rejoined, tc.join)
		}
		if !tc.join {
			if want.Outcome != OutcomeHang {
				t.Fatalf("budget %d: outcome %v, want hang", tc.budget, want.Outcome)
			}
			assertSameResult(t, "refused join", got, want)
			continue
		}
		if got.DynInstrs != got.JoinedAt+3 {
			t.Errorf("joined at run count %d for snapshot @%d, want a shift of 3", got.DynInstrs, got.JoinedAt)
		}
		if got.DynInstrs+(golden.DynInstrs-got.JoinedAt) != full.DynInstrs {
			t.Errorf("join at %d/@%d does not account for the full run's %d instructions",
				got.DynInstrs, got.JoinedAt, full.DynInstrs)
		}
	}
}

// TestConcurrentResume resumes one snapshot from several goroutines at
// once, with a fault and the join index armed: each run owns its memory
// clone (and so its cached segment) and frames, so every result must
// equal a sequential resume's. Run under -race, it also checks that
// nothing a resume writes is shared.
func TestConcurrentResume(t *testing.T) {
	m := mustParse(t, rejoinProgram)
	golden, snaps := collectSnapshots(t, m, 50, Options{})
	join := NewJoinIndex(snaps, golden.DynInstrs)
	s := snaps[len(snaps)/2]
	opts := func(k int) Options {
		fault := Fault{Target: mainInstr(t, m, "dead"), Instance: 1 << 20}
		if k%2 == 1 {
			iter := s.frames[0].regs[mainInstr(t, m, "i").ID]
			fault = Fault{Target: mainInstr(t, m, "dead"), Instance: iter + 2, Seen: iter, Mask: 1 << 3}
		}
		return Options{Join: join, Fault: fault}
	}
	want := make([]*Result, 2)
	for k := range want {
		res, err := Resume(s, opts(k))
		if err != nil {
			t.Fatal(err)
		}
		want[k] = res
	}
	if want[0].Rejoined || !want[1].Rejoined {
		t.Fatalf("rejoined %v/%v, want only the faulty resume to rejoin", want[0].Rejoined, want[1].Rejoined)
	}
	const workers, runs = 4, 25
	got := make([][]*Result, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for k := 0; k < runs; k++ {
				res, err := Resume(s, opts(k))
				if err != nil {
					errs <- err
					return
				}
				got[w] = append(got[w], res)
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for w := range got {
		for k, res := range got[w] {
			assertSameResult(t, "concurrent resume", res, want[k%2])
			if res.Rejoined != want[k%2].Rejoined || res.JoinedAt != want[k%2].JoinedAt {
				t.Errorf("concurrent resume %d/%d: rejoined %v at %d, want %v at %d",
					w, k, res.Rejoined, res.JoinedAt, want[k%2].Rejoined, want[k%2].JoinedAt)
			}
		}
	}
}
