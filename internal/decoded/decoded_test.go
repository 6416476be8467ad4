package decoded

import (
	"testing"

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
	if mv.Width != 64 {
		t.Errorf("phi move width = %d, want 64", mv.Width)
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
	if load.Step != StepLoad || load.Elem != ir.I64 {
		t.Errorf("load = {step %d elem %v}, want StepLoad of i64", load.Step, load.Elem)
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
