package decoded

import (
	"slices"
	"testing"
	"unsafe"

	"trident/internal/ir"
)

func mustParse(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

// TestCompileStructure pins the shape of the lowered form on a small
// program with a phi loop, a global, and memory traffic: block and edge
// construction, operand resolution, and the precomputed per-step fields
// the engine relies on.
func TestCompileStructure(t *testing.T) {
	m := mustParse(t, `
module "shape"
global @g i64 x 2 = [5, 6]
func @main() void {
entry:
  br head
head:
  %i = phi i64 [i64 0, entry], [%inc, body]
  %c = icmp slt %i, i64 2
  condbr %c, body, done
body:
  %inc = add %i, i64 1
  br head
done:
  %p = gep i64, @g, %i
  %v = load i64, %p
  print %v
  ret
}`)
	prog := Compile(m)
	if prog.Module != m {
		t.Fatalf("Program.Module = %p, want the source module", prog.Module)
	}
	if prog.NumGlobals != 1 {
		t.Errorf("NumGlobals = %d, want 1", prog.NumGlobals)
	}
	fn := m.Func("main")
	df := prog.ByFunc[fn]
	if df == nil {
		t.Fatal("ByFunc missing main")
	}
	if len(df.Blocks) != len(fn.Blocks) {
		t.Fatalf("decoded %d blocks, source has %d", len(df.Blocks), len(fn.Blocks))
	}
	if df.NumRegs != fn.NumInstrs() {
		t.Errorf("NumRegs = %d, want %d", df.NumRegs, fn.NumInstrs())
	}
	if df.MaxPhi != 1 {
		t.Errorf("MaxPhi = %d, want 1", df.MaxPhi)
	}

	// Blocks must be parallel to the source blocks.
	for i, b := range fn.Blocks {
		if df.Blocks[i].Ref != b {
			t.Errorf("Blocks[%d].Ref = %s, want %s", i, df.Blocks[i].Ref.Name, b.Name)
		}
	}

	head := &df.Blocks[1]
	if head.NPhi != 1 {
		t.Fatalf("head.NPhi = %d, want 1", head.NPhi)
	}
	if want := len(fn.Blocks[1].Instrs) - 1; len(head.Code) != want {
		t.Errorf("head has %d decoded instrs, want %d (phis excluded)", len(head.Code), want)
	}
	if len(head.Edges) != 2 {
		t.Fatalf("head has %d edges, want 2 (entry and body predecessors)", len(head.Edges))
	}
	if head.EntryEdge != -1 {
		t.Errorf("head.EntryEdge = %d, want -1 (not the function entry)", head.EntryEdge)
	}

	// The entry block's br must target head and carry a valid phi edge.
	entry := &df.Blocks[0]
	br := &entry.Code[len(entry.Code)-1]
	if br.Step != StepBr {
		t.Fatalf("entry terminator step = %d, want StepBr", br.Step)
	}
	if br.T0 != 1 {
		t.Errorf("br.T0 = %d, want head's block index", br.T0)
	}
	if br.E0 < 0 || int(br.E0) >= len(head.Edges) {
		t.Fatalf("br.E0 = %d, want a valid edge index into head", br.E0)
	}
	// The entry→head edge feeds the phi the constant 0.
	mv := head.Edges[br.E0].Moves[0]
	if mv.Src.Kind != KindConst || mv.Src.Bits != 0 {
		t.Errorf("entry edge move src = {kind %d bits %d}, want const 0", mv.Src.Kind, mv.Src.Bits)
	}
	if mv.Mask != ^uint64(0) {
		t.Errorf("phi move mask = %#x, want all 64 bits", mv.Mask)
	}

	// The body→head edge feeds it %inc, a register.
	body := &df.Blocks[2]
	bbr := &body.Code[len(body.Code)-1]
	mv = head.Edges[bbr.E0].Moves[0]
	if mv.Src.Kind != KindReg {
		t.Errorf("body edge move src kind = %d, want KindReg", mv.Src.Kind)
	}

	// condbr: both targets phi-free, so both edge slots are -1.
	cbr := &head.Code[len(head.Code)-1]
	if cbr.Step != StepCondBr {
		t.Fatalf("head terminator step = %d, want StepCondBr", cbr.Step)
	}
	if cbr.E0 != -1 || cbr.E1 != -1 {
		t.Errorf("condbr edges = (%d, %d), want (-1, -1) for phi-free targets", cbr.E0, cbr.E1)
	}

	// gep: stride, index width, and the global base operand.
	done := &df.Blocks[3]
	gep := &done.Code[0]
	if gep.Step != StepGep {
		t.Fatalf("done.Code[0] step = %d, want StepGep", gep.Step)
	}
	if gep.ElemBytes != 8 {
		t.Errorf("gep.ElemBytes = %d, want 8", gep.ElemBytes)
	}
	if gep.IdxWidth != 64 {
		t.Errorf("gep.IdxWidth = %d, want 64", gep.IdxWidth)
	}
	if gep.A.Kind != KindGlobal || gep.A.Idx != 0 {
		t.Errorf("gep base = {kind %d idx %d}, want global slot 0", gep.A.Kind, gep.A.Idx)
	}

	load := &done.Code[1]
	if load.Step != StepLoad || load.Size != 8 {
		t.Errorf("load = {step %d size %d}, want StepLoad of 8 bytes", load.Step, load.Size)
	}
	if load.Dst < 0 {
		t.Errorf("load.Dst = %d, want a register", load.Dst)
	}
	ret := &done.Code[len(done.Code)-1]
	if ret.Step != StepRet || ret.Dst != -1 {
		t.Errorf("ret = {step %d dst %d}, want StepRet with no destination", ret.Step, ret.Dst)
	}

	// Every decoded instruction keeps its source pointer: fault-injection
	// targets compare by *ir.Instr identity across engines.
	for bi := range df.Blocks {
		b := &df.Blocks[bi]
		for ci := range b.Code {
			if b.Code[ci].Ref == nil {
				t.Fatalf("block %s code[%d] has nil Ref", b.Ref.Name, ci)
			}
			if b.Code[ci].Ref != b.Ref.Instrs[b.NPhi+ci] {
				t.Fatalf("block %s code[%d].Ref does not match source instr", b.Ref.Name, ci)
			}
		}
	}
}

// TestCompileMemoizesCallees pins that lowering resolves every call to a
// single decoded function: recursion must not diverge, and two calls to
// the same callee must share its decoded form.
func TestCompileMemoizesCallees(t *testing.T) {
	m := mustParse(t, `
module "memo"
func @fib(%n i64) i64 {
entry:
  %c = icmp slt %n, i64 2
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
  %r = call @fib(i64 6)
  %r2 = call @fib(i64 4)
  print %r
  print %r2
  ret
}`)
	prog := Compile(m)
	dfib := prog.ByFunc[m.Func("fib")]
	if dfib == nil {
		t.Fatal("ByFunc missing fib")
	}

	callees := map[*Func]int{}
	for _, df := range prog.Funcs {
		for bi := range df.Blocks {
			for ci := range df.Blocks[bi].Code {
				in := &df.Blocks[bi].Code[ci]
				if in.Step == StepCall {
					callees[in.Callee]++
				}
			}
		}
	}
	if len(callees) != 1 {
		t.Fatalf("calls resolve to %d decoded functions, want 1", len(callees))
	}
	if callees[dfib] != 4 {
		t.Errorf("fib has %d call sites bound to its decoded form, want 4", callees[dfib])
	}
	// The program must contain each function's decoded form exactly once.
	if len(prog.Funcs) != 2 {
		t.Errorf("Funcs has %d entries, want 2", len(prog.Funcs))
	}

	// Block IDs number every block of the program once, densely, in
	// Funcs order: per-block tables index by them.
	next := int32(0)
	for _, df := range prog.Funcs {
		for bi := range df.Blocks {
			if id := df.Blocks[bi].ID; id != next {
				t.Errorf("%s block %s has ID %d, want %d", df.Ref.Name, df.Blocks[bi].Ref.Name, id, next)
			}
			next++
		}
	}
	if prog.NumBlocks != int(next) {
		t.Errorf("NumBlocks = %d, want %d", prog.NumBlocks, next)
	}
}

// TestCompileErrorMarkers pins the lowering of constructs Verify rejects
// but execution must tolerate as runtime errors:
// mid-block phis become StepInvalid, entry-block phis get the "<entry>"
// pseudo-edge, and a call without a callee keeps Callee nil.
func TestCompileErrorMarkers(t *testing.T) {
	// Mid-block phi → StepInvalid.
	m := &ir.Module{Name: "mid-phi"}
	fn := m.NewFunc("main", ir.Void)
	b := fn.NewBlock("entry")
	b.Instrs = append(b.Instrs,
		&ir.Instr{Op: ir.OpAdd, Type: ir.I32, Block: b,
			Operands: []ir.Value{ir.ConstInt(ir.I32, 1), ir.ConstInt(ir.I32, 2)}},
		&ir.Instr{Op: ir.OpPhi, Type: ir.I32, Block: b},
		&ir.Instr{Op: ir.OpRet, Block: b})
	fn.Renumber()
	prog := Compile(m)
	code := prog.ByFunc[fn].Blocks[0].Code
	if code[1].Step != StepInvalid {
		t.Errorf("mid-block phi step = %d, want StepInvalid", code[1].Step)
	}

	// Entry-block phi → entry pseudo-edge with the "<entry>" marker.
	m2 := &ir.Module{Name: "entry-phi"}
	fn2 := m2.NewFunc("main", ir.Void)
	b2 := fn2.NewBlock("entry")
	phi := &ir.Instr{Op: ir.OpPhi, Type: ir.I32, Block: b2}
	b2.Instrs = append(b2.Instrs, phi, &ir.Instr{Op: ir.OpRet, Block: b2})
	fn2.Renumber()
	prog2 := Compile(m2)
	entry := prog2.ByFunc[fn2].Blocks[0]
	if entry.NPhi != 1 {
		t.Fatalf("entry.NPhi = %d, want 1", entry.NPhi)
	}
	if entry.EntryEdge < 0 {
		t.Fatal("entry block with phi has no entry pseudo-edge")
	}
	e := entry.Edges[entry.EntryEdge]
	if e.Bad != phi {
		t.Errorf("entry edge Bad = %v, want the phi", e.Bad)
	}
	if e.BadPrev != "<entry>" {
		t.Errorf("entry edge BadPrev = %q, want %q", e.BadPrev, "<entry>")
	}

	// Call without a callee → nil Callee marker.
	m3 := &ir.Module{Name: "no-callee"}
	fn3 := m3.NewFunc("main", ir.Void)
	b3 := fn3.NewBlock("entry")
	b3.Instrs = append(b3.Instrs,
		&ir.Instr{Op: ir.OpCall, Type: ir.Void, Block: b3},
		&ir.Instr{Op: ir.OpRet, Block: b3})
	fn3.Renumber()
	prog3 := Compile(m3)
	call := prog3.ByFunc[fn3].Blocks[0].Code[0]
	if call.Step != StepCall || call.Callee != nil {
		t.Errorf("callee-less call = {step %d callee %v}, want StepCall with nil Callee",
			call.Step, call.Callee)
	}
}

// liveRegs returns the sorted register IDs of fn's instructions named in
// names.
func liveRegs(t *testing.T, fn *ir.Func, names ...string) []int32 {
	t.Helper()
	var ids []int32
	for _, name := range names {
		found := false
		fn.Instrs(func(in *ir.Instr) {
			if in.Name == name {
				ids = append(ids, int32(in.ID))
				found = true
			}
		})
		if !found {
			t.Fatalf("no instruction %%%s in %s", name, fn.Name)
		}
	}
	slices.Sort(ids)
	return ids
}

// TestLiveness pins the register sets the rejoin check compares: a
// block's LiveIn after its phi prologue and a call's LiveAfter. It
// covers a loop-carried phi, a phi nobody reads (whose source then
// needs no keeping), a value dead after its last use, a call result left
// out of its own LiveAfter, and the error markers that make everything
// before them dead: a bad phi edge and a StepInvalid instruction.
func TestLiveness(t *testing.T) {
	m := mustParse(t, `
module "live"
func @sq(%x i64) i64 {
entry:
  %y = mul %x, %x
  ret %y
}
func @main() void {
entry:
  %t = add i64 5, i64 0
  %u = add %t, i64 1
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, loop]
  %s = phi i64 [%u, entry], [%s2, loop]
  %z = phi i64 [i64 0, entry], [%w, loop]
  %d = add %i, i64 7
  %dd = mul %d, %d
  %w = add %i, i64 2
  %r = call @sq(%dd)
  %s2 = add %s, %r
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 4
  condbr %c, loop, done
done:
  print %s2
  ret
}`)
	prog := Compile(m)
	fn := m.Func("main")
	df := prog.ByFunc[fn]
	for _, tc := range []struct {
		block string
		want  []int32
	}{
		{"entry", nil},
		// %s2 and %inc are live at the loop's end but rewritten before
		// any read once the header is entered; %z is never read, so %w,
		// its back-edge source, is not kept for it.
		{"loop", liveRegs(t, fn, "i", "s")},
		{"done", liveRegs(t, fn, "s2")},
	} {
		blk := &df.Blocks[slices.IndexFunc(fn.Blocks, func(b *ir.Block) bool { return b.Name == tc.block })]
		if !slices.Equal(blk.LiveIn, tc.want) {
			t.Errorf("%s LiveIn = %v, want %v", tc.block, blk.LiveIn, tc.want)
		}
	}
	// After @sq returns, %d and %dd are dead (last used by the call), %w
	// only feeds the dead %z, and %r is the call's own result.
	var call *Instr
	for bi := range df.Blocks {
		for ci := range df.Blocks[bi].Code {
			if df.Blocks[bi].Code[ci].Step == StepCall {
				call = &df.Blocks[bi].Code[ci]
			}
		}
	}
	if want := liveRegs(t, fn, "i", "s"); !slices.Equal(call.LiveAfter, want) {
		t.Errorf("call LiveAfter = %v, want %v", call.LiveAfter, want)
	}
	if sq := prog.ByFunc[m.Func("sq")]; len(sq.Blocks[0].LiveIn) != 0 {
		t.Errorf("@sq entry LiveIn = %v, want none (parameters are not registers)", sq.Blocks[0].LiveIn)
	}

	// Error markers: entering join from pre fails on its phi, and tail
	// fails on a mid-block phi before it prints %k, so nothing is live
	// at either block.
	m2 := mustParse(t, `
module "markers"
func @main() void {
entry:
  %k = add i64 1, i64 2
  %c = icmp eq %k, i64 3
  condbr %c, pre, other
pre:
  br join
other:
  br join
join:
  %p = phi i64 [i64 0, pre], [i64 1, other]
  %s = add %p, %k
  print %s
  br tail
tail:
  %z = add i64 0, i64 0
  print %k
  ret
}`)
	fn2 := m2.Func("main")
	p := fn2.Blocks[3].Instrs[0]
	p.PhiBlocks, p.Operands = p.PhiBlocks[1:], p.Operands[1:]
	tail := fn2.Blocks[4]
	tail.Instrs = slices.Insert(tail.Instrs, 1, &ir.Instr{Op: ir.OpPhi, Type: ir.I64, Block: tail})
	fn2.Renumber()
	df2 := Compile(m2).ByFunc[fn2]
	if df2.Blocks[3].Edges[0].Bad == nil || df2.Blocks[4].Code[1].Step != StepInvalid {
		t.Fatal("the mutated program does not lower to a bad edge and a StepInvalid")
	}
	for _, tc := range []struct {
		block int
		want  []int32
	}{
		{1, nil}, // pre: its only successor edge is bad
		{2, liveRegs(t, fn2, "k")},
		{3, liveRegs(t, fn2, "p", "k")},
		{4, nil}, // tail: StepInvalid precedes print %k
	} {
		if got := df2.Blocks[tc.block].LiveIn; !slices.Equal(got, tc.want) {
			t.Errorf("%s LiveIn = %v, want %v", fn2.Blocks[tc.block].Name, got, tc.want)
		}
	}
}

// TestInstrSize pins decoded.Instr at three 64-byte cache lines: the
// engine touches one Instr per dispatch.
func TestInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n > 192 {
		t.Errorf("decoded.Instr is %d bytes, want at most 192", n)
	}
}
