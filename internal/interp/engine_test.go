// Engine-vs-reference parity tests: the interpreter must be
// observationally identical to the naive reference evaluator
// (internal/refinterp) — same results, the same register-write trace
// (also under an injected bit flip), the same trap positions, the same
// hang boundaries and the same errors for broken modules — and a
// resumed snapshot must finish exactly like the reference run. The
// pool tests pin that a recycled frame is indistinguishable from a
// fresh one.

package interp

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"trident/internal/decoded"
	"trident/internal/ir"
	"trident/internal/progs"
	"trident/internal/refinterp"
)

// flipper records every register write as "pos bits", with flipMask
// XORed into the flipAt-th: as the reference evaluator's OnResult it
// injects that flip; as the interpreter's (observe-only) OnResult it
// records the flip that Options.Fault injects.
type flipper struct {
	flipAt   uint64 // 1-based register-write index to corrupt, 0 = never
	flipMask uint64
	writes   []string
}

func (f *flipper) onResult(in *ir.Instr, bits uint64) uint64 {
	if uint64(len(f.writes))+1 == f.flipAt {
		bits ^= f.flipMask
	}
	f.writes = append(f.writes, fmt.Sprintf("%s %#x", in.Pos(), bits))
	return bits
}

// runWithReference executes m on the interpreter and on the reference
// evaluator with the same budget and injected flip, and fails the test
// on any observable difference. Without a flip it also runs the
// interpreter hook-free, so its fast result path is held to the same
// results and to the same registers at every snapshot. It returns the
// interpreter's result.
func runWithReference(t *testing.T, m *ir.Module, opts Options, flipAt, flipMask uint64) (*Result, error) {
	t.Helper()
	got := &flipper{flipAt: flipAt, flipMask: flipMask}
	want := &flipper{flipAt: flipAt, flipMask: flipMask}
	if flipAt != 0 {
		opts.Fault = faultAtWrite(t, m, opts, flipAt, flipMask)
	}
	opts.Hooks.OnResult = func(_ *Context, in *ir.Instr, bits uint64) { got.onResult(in, bits) }
	var hooked, plainSnaps []*Snapshot
	if flipAt == 0 {
		opts.SnapshotInterval = 256
		opts.OnSnapshot = func(s *Snapshot) { hooked = append(hooked, s) }
	}
	res, err := Run(m, opts)
	ref, refErr := refinterp.Run(m, refinterp.Options{
		MaxDynInstrs: opts.MaxDynInstrs,
		OnResult:     want.onResult,
	})
	if (err == nil) != (refErr == nil) {
		t.Fatalf("error divergence: interp=%v refinterp=%v", err, refErr)
	}
	if flipAt == 0 {
		hookFree := opts
		hookFree.Hooks.OnResult = nil
		hookFree.OnSnapshot = func(s *Snapshot) { plainSnaps = append(plainSnaps, s) }
		plain, plainErr := Run(m, hookFree)
		if fmt.Sprint(plainErr) != fmt.Sprint(err) {
			t.Fatalf("hook-free run: err = %v, with OnResult: %v", plainErr, err)
		}
		if plainErr == nil {
			compareWithReference(t, plain, ref)
		}
		if len(plainSnaps) != len(hooked) {
			t.Fatalf("hook-free run took %d snapshots, with OnResult %d", len(plainSnaps), len(hooked))
		}
		for i, s := range plainSnaps {
			for f := range s.frames {
				if a, b := s.frames[f].regs, hooked[i].frames[f].regs; !slices.Equal(a, b) {
					t.Fatalf("snapshot at %d, frame %d: hook-free registers %#x, with OnResult %#x", s.dynCount, f, a, b)
				}
			}
		}
	}
	if err != nil {
		g := strings.TrimPrefix(err.Error(), "interp: ")
		w := strings.TrimPrefix(refErr.Error(), "refinterp: ")
		if g != w {
			t.Fatalf("error text divergence:\n  interp:    %v\n  refinterp: %v", err, refErr)
		}
		return nil, err
	}
	compareWithReference(t, res, ref)
	if len(got.writes) != len(want.writes) {
		t.Fatalf("register writes: interp=%d refinterp=%d", len(got.writes), len(want.writes))
	}
	for i := range got.writes {
		if got.writes[i] != want.writes[i] {
			t.Fatalf("register write %d diverges:\n  interp:    %s\n  refinterp: %s",
				i, got.writes[i], want.writes[i])
		}
	}
	return res, nil
}

// faultAtWrite returns the Options.Fault that flips mask into the
// flipAt-th register write of a run of m under opts.
func faultAtWrite(t *testing.T, m *ir.Module, opts Options, flipAt, mask uint64) Fault {
	t.Helper()
	var f Fault
	var writes uint64
	seen := map[*ir.Instr]uint64{}
	opts.Hooks.OnResult = func(_ *Context, in *ir.Instr, _ uint64) {
		seen[in]++
		if writes++; writes == flipAt {
			f = Fault{Target: in, Instance: seen[in], Mask: mask}
		}
	}
	Run(m, opts)
	if f.Target == nil {
		t.Fatalf("the run makes fewer than %d register writes", flipAt)
	}
	return f
}

// compareWithReference fails the test unless every result observable
// matches the reference evaluator's.
func compareWithReference(t *testing.T, got *Result, want *refinterp.Result) {
	t.Helper()
	if got.Outcome.String() != want.Outcome.String() {
		t.Fatalf("outcome: interp=%v refinterp=%v", got.Outcome, want.Outcome)
	}
	if got.Output != want.Output {
		t.Fatalf("output diverges:\n  interp:    %q\n  refinterp: %q", got.Output, want.Output)
	}
	if got.OutputLines != want.OutputLines {
		t.Fatalf("output lines: interp=%d refinterp=%d", got.OutputLines, want.OutputLines)
	}
	if got.DynInstrs != want.DynInstrs {
		t.Fatalf("dyn instrs: interp=%d refinterp=%d", got.DynInstrs, want.DynInstrs)
	}
	if got.DynResults != want.DynResults {
		t.Fatalf("dyn results: interp=%d refinterp=%d", got.DynResults, want.DynResults)
	}
	if got.PeakMemBytes != want.PeakMemBytes {
		t.Fatalf("peak mem: interp=%d refinterp=%d", got.PeakMemBytes, want.PeakMemBytes)
	}
	if (got.Trap == nil) != (want.Trap == nil) {
		t.Fatalf("trap presence: interp=%v refinterp=%v", got.Trap, want.Trap)
	}
	if got.Trap != nil {
		if got.Trap.Kind.String() != want.Trap.Kind.String() ||
			got.Trap.Instr != want.Trap.Instr || got.Trap.Addr != want.Trap.Addr {
			t.Fatalf("trap diverges: interp=%v refinterp=%v", got.Trap, want.Trap)
		}
	}
}

// TestEngineParityKernels runs every benchmark kernel on the
// interpreter and the reference evaluator and requires bit-identical
// behavior, register-write trace included.
func TestEngineParityKernels(t *testing.T) {
	for _, p := range progs.All() {
		t.Run(p.Name, func(t *testing.T) {
			m := p.Build()
			if _, err := runWithReference(t, m, Options{}, 0, 0); err != nil {
				t.Fatalf("run: %v", err)
			}
		})
	}
}

// TestEngineParityInjected corrupts one dynamic result mid-run (the
// interpreter's Options.Fault, the reference evaluator's OnResult) and
// requires the interpreter and
// the reference evaluator to propagate the corruption identically.
func TestEngineParityInjected(t *testing.T) {
	for _, p := range progs.All() {
		t.Run(p.Name, func(t *testing.T) {
			m := p.Build()
			base, err := Run(m, Options{})
			if err != nil {
				t.Fatalf("golden: %v", err)
			}
			// A handful of injection points spread across the run, plus the
			// very first and last results.
			points := []uint64{1, base.DynResults / 3, base.DynResults / 2, base.DynResults}
			for _, at := range points {
				if at == 0 {
					continue
				}
				runWithReference(t, m, Options{}, at, 1<<7)
			}
		})
	}
}

// TestEngineParityControl covers the control-flow corner cases the
// kernels may not hit: traps of every kind, phi-dense diamonds,
// recursion to stack overflow, param/global traffic, and accesses
// through a released alloca.
func TestEngineParityControl(t *testing.T) {
	srcs := map[string]string{
		"oob-load": `
module "oob"
func @main() void {
entry:
  %p = alloca i32 x 2
  %q = gep i32, %p, i64 5
  %v = load i32, %q
  print %v
  ret
}`,
		"oob-store": `
module "oob2"
func @main() void {
entry:
  %p = alloca i32 x 2
  %q = gep i32, %p, i64 99
  store i32 7, %q
  ret
}`,
		"div-zero": `
module "dz"
func @main() void {
entry:
  %a = add i32 10, i32 0
  %b = sub %a, i32 10
  %c = sdiv i32 5, %b
  print %c
  ret
}`,
		"detected": `
module "det"
func @main() void {
entry:
  %a = add i32 1, i32 2
  %b = add i32 1, i32 3
  check %a, %b
  ret
}`,
		"overflow": `
module "ovf"
func @rec(%n i32) i32 {
entry:
  %r = call @rec(%n)
  ret %r
}
func @main() void {
entry:
  %r = call @rec(i32 1)
  print %r
  ret
}`,
		"phi-diamond": `
module "phid"
func @main() void {
entry:
  %c = icmp sgt i32 3, i32 2
  condbr %c, a, b
a:
  %x = add i32 10, i32 1
  br join
b:
  %y = add i32 20, i32 2
  br join
join:
  %p = phi i32 [%x, a], [%y, b]
  %q = phi i32 [i32 100, a], [i32 200, b]
  %s = add %p, %q
  print %s
  ret
}`,
		"phi-swap": `
module "swap"
func @main() void {
entry:
  br loop
loop:
  %a = phi i32 [i32 1, entry], [%b, loop]
  %b = phi i32 [i32 2, entry], [%a, loop]
  %i = phi i32 [i32 0, entry], [%n, loop]
  %n = add %i, i32 1
  %c = icmp slt %n, i32 5
  condbr %c, loop, done
done:
  print %a
  print %b
  ret
}`,
		"globals": `
module "glob"
global @tab i64 x 4 = [1, 2, 3, 4]
global @acc i64 x 1
func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%n, loop]
  %p = gep i64, @tab, %i
  %v = load i64, %p
  %q = load i64, @acc
  %s = add %q, %v
  store %s, @acc
  %n = add %i, i64 1
  %c = icmp slt %n, i64 4
  condbr %c, loop, done
done:
  %r = load i64, @acc
  print %r
  ret
}`,
		"calls": `
module "calls"
func @fib(%n i64) i64 {
entry:
  %c = icmp sle %n, i64 1
  condbr %c, base, rec
base:
  ret %n
rec:
  %a = sub %n, i64 1
  %b = sub %n, i64 2
  %fa = call @fib(%a)
  %fb = call @fib(%b)
  %s = add %fa, %fb
  ret %s
}
func @main() void {
entry:
  %r = call @fib(i64 12)
  print %r
  ret
}`,
	}
	// A load or store through a pointer to a released alloca, which was
	// the last-hit segment when its frame returned, at every width.
	for _, ty := range []string{"i8", "i16", "i32", "i64"} {
		for access, code := range map[string]string{
			"load":  "%v = load " + ty + ", %p\n  print %v",
			"store": "store " + ty + " 7, %p",
		} {
			srcs["dangling-"+access+"-"+ty] = fmt.Sprintf(`
module "dangle"
func @leak() ptr {
entry:
  %%p = alloca %[1]s x 2
  store %[1]s 42, %%p
  %%x = load %[1]s, %%p
  ret %%p
}
func @main() void {
entry:
  %%p = call @leak()
  %[2]s
  ret
}`, ty, code)
		}
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			m := mustParse(t, src)
			res, _ := runWithReference(t, m, Options{}, 0, 0)
			if strings.HasPrefix(name, "dangling-") && (res == nil || res.Outcome != OutcomeCrash) {
				t.Errorf("access through a released alloca did not trap")
			}
		})
	}
}

// TestEngineParityHangBoundary sweeps the instruction budget through a
// phi prologue and requires the interpreter to report the reference
// evaluator's DynInstrs at every cutoff — the count-before-execute
// contract.
func TestEngineParityHangBoundary(t *testing.T) {
	m := mustParse(t, `
module "hb"
func @main() void {
entry:
  br loop
loop:
  %i = phi i32 [i32 0, entry], [%n, loop]
  %a = phi i32 [i32 0, entry], [%s, loop]
  %s = add %a, %i
  %n = add %i, i32 1
  %c = icmp slt %n, i32 1000
  condbr %c, loop, done
done:
  print %s
  ret
}`)
	for budget := uint64(1); budget <= 24; budget++ {
		opts := Options{MaxDynInstrs: budget}
		res, err := runWithReference(t, m, opts, 0, 0)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if res.Outcome != OutcomeHang {
			t.Fatalf("budget %d: outcome %v, want hang", budget, res.Outcome)
		}
	}
}

// TestEngineSnapshotCrossResume captures snapshots across a kernel run,
// resumes each one, and cross-checks every resumed run against the
// reference evaluator's uninterrupted run.
func TestEngineSnapshotCrossResume(t *testing.T) {
	p, err := progs.ByName("pathfinder")
	if err != nil {
		t.Fatal(err)
	}
	m := p.Build()
	ref, err := refinterp.Run(m, refinterp.Options{})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	var snaps []*Snapshot
	res, err := Run(m, Options{
		SnapshotInterval: ref.DynInstrs / 4,
		OnSnapshot:       func(s *Snapshot) { snaps = append(snaps, s) },
	})
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	compareWithReference(t, res, ref)
	if len(snaps) == 0 {
		t.Fatal("capture: no snapshots")
	}
	for i, s := range snaps {
		res, err := Resume(s, Options{})
		if err != nil {
			t.Fatalf("snap %d: %v", i, err)
		}
		compareWithReference(t, res, ref)
	}
}

// TestEngineParityBrokenModules exercises the decoded lowering's
// runtime-error markers: constructs Verify rejects but execution must
// tolerate, where the interpreter must report the reference
// evaluator's error.
func TestEngineParityBrokenModules(t *testing.T) {
	// A phi in the entry block: reached via the entry pseudo-edge, it has
	// no incoming for "<entry>".
	m := &ir.Module{Name: "bad-entry-phi"}
	fn := m.NewFunc("main", ir.Void)
	entry := fn.NewBlock("entry")
	entry.Instrs = append(entry.Instrs,
		&ir.Instr{Op: ir.OpPhi, Type: ir.I32, Block: entry},
		&ir.Instr{Op: ir.OpRet, Block: entry})
	fn.Renumber()

	_, err := runWithReference(t, m, Options{}, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "no incoming for block <entry>") {
		t.Errorf("err = %v, want entry-phi error", err)
	}

	// A mid-block phi cannot execute.
	m2 := &ir.Module{Name: "bad-mid-phi"}
	fn2 := m2.NewFunc("main", ir.Void)
	e2 := fn2.NewBlock("entry")
	e2.Instrs = append(e2.Instrs,
		&ir.Instr{Op: ir.OpAdd, Type: ir.I32, Block: e2,
			Operands: []ir.Value{ir.ConstInt(ir.I32, 1), ir.ConstInt(ir.I32, 2)}},
		&ir.Instr{Op: ir.OpPhi, Type: ir.I32, Block: e2},
		&ir.Instr{Op: ir.OpRet, Block: e2})
	fn2.Renumber()

	_, err = runWithReference(t, m2, Options{}, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "cannot execute phi") {
		t.Errorf("err = %v, want cannot-execute-phi error", err)
	}
}

// TestFramePoolHygiene dirties a pooled frame and requires prepare to
// restore it to a fresh-allocation state: stale registers, parameters
// or alloca references leaking into the next trial must fail here.
func TestFramePoolHygiene(t *testing.T) {
	m := mustParse(t, `
module "h"
func @f(%a i64, %b i64) i64 {
entry:
  %s = add %a, %b
  ret %s
}
func @main() void {
entry:
  %r = call @f(i64 1, i64 2)
  print %r
  ret
}`)
	prog := decoded.Compile(m)
	df := prog.ByFunc[m.Func("f")]

	fr := &frame{
		regs:    []uint64{0xdead, 0xbeef, 0xcafe},
		params:  []uint64{7, 8, 9},
		scratch: []uint64{1},
		allocas: []*Segment{{Base: 1}},
		blk:     &decoded.Block{},
		dip:     42,
	}
	fr.prepare(df)

	if fr.fn != df {
		t.Errorf("fn not set")
	}
	if fr.blk != nil || fr.dip != 0 {
		t.Errorf("position state not reset: blk=%v dip=%d", fr.blk, fr.dip)
	}
	if len(fr.regs) != df.NumRegs {
		t.Fatalf("regs len = %d, want %d", len(fr.regs), df.NumRegs)
	}
	for i, r := range fr.regs {
		if r != 0 {
			t.Errorf("stale register %d = %#x after prepare", i, r)
		}
	}
	if len(fr.params) != df.NumParams {
		t.Fatalf("params len = %d, want %d", len(fr.params), df.NumParams)
	}
	for i, p := range fr.params {
		if p != 0 {
			t.Errorf("stale param %d = %#x after prepare", i, p)
		}
	}
	if len(fr.allocas) != 0 {
		t.Errorf("stale allocas survived prepare: %v", fr.allocas)
	}

	// releaseFrame must drop object references so the pool does not
	// retain programs or segments.
	fr.blk = &decoded.Block{}
	fr.allocas = append(fr.allocas, &Segment{})
	releaseFrame(fr)
	if fr.fn != nil || fr.blk != nil {
		t.Errorf("releaseFrame retained references: fn=%v blk=%v", fr.fn, fr.blk)
	}
	if !fr.reused {
		t.Errorf("releaseFrame did not mark frame as pooled")
	}
}

// TestFramePoolGrowth verifies prepare re-sizes a small recycled frame
// upward (and zeroes the grown arrays).
func TestFramePoolGrowth(t *testing.T) {
	m := mustParse(t, `
module "g"
func @big(%a i64, %b i64, %c i64) i64 {
entry:
  %x = add %a, %b
  %y = add %x, %c
  %z = mul %y, %y
  %w = add %z, %x
  ret %w
}
func @main() void {
entry:
  %r = call @big(i64 1, i64 2, i64 3)
  print %r
  ret
}`)
	prog := decoded.Compile(m)
	df := prog.ByFunc[m.Func("big")]
	fr := &frame{regs: []uint64{0xff}, params: []uint64{0xee}}
	fr.prepare(df)
	if len(fr.regs) != df.NumRegs || len(fr.params) != df.NumParams {
		t.Fatalf("prepare did not grow: regs=%d params=%d", len(fr.regs), len(fr.params))
	}
	for i, r := range fr.regs {
		if r != 0 {
			t.Errorf("grown register %d = %#x, want 0", i, r)
		}
	}
}

// TestDecodedRepeatedRuns reuses one compiled program across many runs
// on the same and different goroutines — the campaign usage pattern —
// and checks the pool does not leak state between them.
func TestDecodedRepeatedRuns(t *testing.T) {
	p, err := progs.ByName("nw")
	if err != nil {
		t.Fatal(err)
	}
	m := p.Build()
	prog := decoded.Compile(m)
	golden, err := refinterp.Run(m, refinterp.Options{})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for i := 0; i < 8; i++ {
		res, err := Run(m, Options{Decoded: prog})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		compareWithReference(t, res, golden)
	}
	t.Run("parallel", func(t *testing.T) {
		for i := 0; i < 4; i++ {
			t.Run(fmt.Sprintf("worker%d", i), func(t *testing.T) {
				t.Parallel()
				for j := 0; j < 4; j++ {
					res, err := Run(m, Options{Decoded: prog})
					if err != nil {
						t.Fatalf("run %d: %v", j, err)
					}
					compareWithReference(t, res, golden)
				}
			})
		}
	})
}
