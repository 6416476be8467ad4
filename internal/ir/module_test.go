package ir

import (
	"strings"
	"testing"
)

// buildCountdown builds:
//
//	func main() {
//	  n = 10
//	loop:
//	  i = phi [n, entry], [dec, loop]
//	  dec = sub i, 1
//	  c = icmp sgt dec, 0
//	  condbr c, loop, exit
//	exit:
//	  print dec
//	  ret
//	}
func buildCountdown(t testing.TB) *Module {
	t.Helper()
	m := NewModule("countdown")
	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	entry := b.NewBlock("entry")
	loop := b.NewBlock("loop")
	exit := b.NewBlock("exit")

	b.SetBlock(entry)
	b.Br(loop)

	b.SetBlock(loop)
	i := b.Named("i", b.Phi(I32))
	dec := b.Named("dec", b.Sub(i, ConstInt(I32, 1)))
	c := b.Named("c", b.ICmp(PredSGT, dec, ConstInt(I32, 0)))
	b.CondBr(c, loop, exit)
	b.AddIncoming(i, ConstInt(I32, 10), entry)
	b.AddIncoming(i, dec, loop)

	b.SetBlock(exit)
	b.Print(dec)
	b.Ret(nil)

	f.Renumber()
	if err := Verify(m); err != nil {
		t.Fatalf("countdown module invalid: %v", err)
	}
	return m
}

func TestBuilderProducesValidModule(t *testing.T) {
	m := buildCountdown(t)
	f := m.Func("main")
	if f == nil {
		t.Fatal("main not found")
	}
	if got := f.NumInstrs(); got != 7 {
		t.Errorf("NumInstrs = %d, want 7", got)
	}
	if f.Entry().Name != "entry" {
		t.Errorf("entry block = %q", f.Entry().Name)
	}
}

func TestRenumberAssignsSequentialIDs(t *testing.T) {
	m := buildCountdown(t)
	f := m.Func("main")
	want := 0
	f.Instrs(func(in *Instr) {
		if in.ID != want {
			t.Errorf("instruction %s has ID %d, want %d", in, in.ID, want)
		}
		want++
	})
	for id := 0; id < f.NumInstrs(); id++ {
		if got := f.InstrByID(id); got == nil || got.ID != id {
			t.Errorf("InstrByID(%d) wrong", id)
		}
	}
	if f.InstrByID(999) != nil {
		t.Error("InstrByID(999) should be nil")
	}
}

func TestSuccsAndPreds(t *testing.T) {
	m := buildCountdown(t)
	f := m.Func("main")
	entry, loop, exit := f.Block("entry"), f.Block("loop"), f.Block("exit")

	if s := entry.Succs(); len(s) != 1 || s[0] != loop {
		t.Errorf("entry succs = %v", names(s))
	}
	if s := loop.Succs(); len(s) != 2 || s[0] != loop || s[1] != exit {
		t.Errorf("loop succs = %v", names(s))
	}
	// Predecessors are the inverse of Succs over the function's blocks.
	preds := map[*Block][]*Block{}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	if p := preds[loop]; len(p) != 2 {
		t.Errorf("loop preds = %v", names(p))
	}
	if p := preds[exit]; len(p) != 1 || p[0] != loop {
		t.Errorf("exit preds = %v", names(p))
	}
	if p := preds[entry]; len(p) != 0 {
		t.Errorf("entry preds = %v", names(p))
	}
}

func names(bs []*Block) []string {
	var out []string
	for _, b := range bs {
		out = append(out, b.Name)
	}
	return out
}

func TestModuleLookups(t *testing.T) {
	m := buildCountdown(t)
	m.AddGlobal("data", I64, 4, []uint64{1, 2})
	if m.Global("data") == nil || m.Global("nope") != nil {
		t.Error("Global lookup wrong")
	}
	if m.Func("main") == nil || m.Func("nope") != nil {
		t.Error("Func lookup wrong")
	}
	if m.NumInstrs() != 7 {
		t.Errorf("module NumInstrs = %d", m.NumInstrs())
	}
	n := 0
	m.Instrs(func(*Instr) { n++ })
	if n != 7 {
		t.Errorf("Instrs visited %d", n)
	}
}

func TestUseMap(t *testing.T) {
	m := buildCountdown(t)
	f := m.Func("main")
	um := BuildUseMap(f)

	loop := f.Block("loop")
	phi := loop.Instrs[0]
	dec := loop.Instrs[1]
	cmp := loop.Instrs[2]

	// dec is used by cmp, by the phi, and by print.
	if n := len(um.Users(dec)); n != 3 {
		t.Errorf("dec has %d uses, want 3", n)
	}
	if n := len(um.Users(phi)); n != 1 {
		t.Errorf("phi has %d uses, want 1", n)
	}
	// cmp is used by the condbr.
	users := um.Users(cmp)
	if len(users) != 1 || users[0].Op != OpCondBr {
		t.Errorf("cmp users = %v", users)
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	bb := b.NewBlock("entry")
	b.SetBlock(bb)
	b.Add(ConstInt(I32, 1), ConstInt(I32, 2))
	f.Renumber()
	err := Verify(m)
	if err == nil || !strings.Contains(err.Error(), "terminator") {
		t.Errorf("Verify = %v, want terminator error", err)
	}
}

func TestVerifyCatchesTypeMismatch(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	b.SetBlock(b.NewBlock("entry"))
	b.Add(ConstInt(I32, 1), ConstInt(I64, 2))
	b.Ret(nil)
	f.Renumber()
	err := Verify(m)
	if err == nil || !strings.Contains(err.Error(), "differ") {
		t.Errorf("Verify = %v, want operand type error", err)
	}
}

func TestVerifyCatchesBadPhi(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	entry := b.NewBlock("entry")
	next := b.NewBlock("next")
	b.SetBlock(entry)
	b.Br(next)
	b.SetBlock(next)
	phi := b.Phi(I32)
	// Only one incoming edge covered; block has one pred so add a bogus one.
	b.AddIncoming(phi, ConstInt(I32, 1), next) // next is not a pred of next
	b.Ret(nil)
	f.Renumber()
	err := Verify(m)
	if err == nil || !strings.Contains(err.Error(), "predecessor") {
		t.Errorf("Verify = %v, want phi predecessor error", err)
	}
}

func TestVerifyCatchesVoidIssues(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("main", I32) // non-void return
	b := NewBuilder(f)
	b.SetBlock(b.NewBlock("entry"))
	b.Ret(nil) // missing value
	f.Renumber()
	err := Verify(m)
	if err == nil || !strings.Contains(err.Error(), "ret without value") {
		t.Errorf("Verify = %v, want ret error", err)
	}
}

func TestVerifyCatchesMissingMain(t *testing.T) {
	m := NewModule("nomain")
	f := m.NewFunc("helper", Void)
	b := NewBuilder(f)
	b.SetBlock(b.NewBlock("entry"))
	b.Ret(nil)
	f.Renumber()
	err := Verify(m)
	if err == nil || !strings.Contains(err.Error(), "main") {
		t.Errorf("Verify = %v, want missing-main error", err)
	}
}

func TestVerifyCatchesCallArgMismatch(t *testing.T) {
	m := NewModule("bad")
	callee := m.NewFunc("f", I32, NewParam("x", I32))
	cb := NewBuilder(callee)
	cb.SetBlock(cb.NewBlock("entry"))
	cb.Ret(ConstInt(I32, 0))
	callee.Renumber()

	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	b.SetBlock(b.NewBlock("entry"))
	b.Call(callee, ConstInt(I64, 1)) // wrong arg type
	b.Ret(nil)
	f.Renumber()
	err := Verify(m)
	if err == nil || !strings.Contains(err.Error(), "arg 0") {
		t.Errorf("Verify = %v, want call arg error", err)
	}
}

func TestVerifyCatchesDuplicates(t *testing.T) {
	m := NewModule("dups")
	for i := 0; i < 2; i++ {
		f := m.NewFunc("main", Void)
		b := NewBuilder(f)
		b.SetBlock(b.NewBlock("entry"))
		b.Ret(nil)
		f.Renumber()
	}
	m.AddGlobal("g", I32, 1, nil)
	m.AddGlobal("g", I32, 1, nil)
	err := Verify(m)
	if err == nil {
		t.Fatal("Verify passed with duplicates")
	}
	msg := err.Error()
	if !strings.Contains(msg, "duplicate function") || !strings.Contains(msg, "duplicate global") {
		t.Errorf("Verify = %v, want duplicate errors", err)
	}
}

func TestBlockTerminatorHelpers(t *testing.T) {
	m := buildCountdown(t)
	f := m.Func("main")
	loop := f.Block("loop")
	term := loop.Terminator()
	if term == nil || term.Op != OpCondBr {
		t.Fatalf("loop terminator = %v", term)
	}
}

func TestCloneModulePreservesBehaviourShape(t *testing.T) {
	m := buildCountdown(t)
	m.AddGlobal("data", I64, 4, []uint64{1, 2})
	clone, mapping := CloneModule(m)
	if err := Verify(clone); err != nil {
		t.Fatalf("clone fails verification: %v", err)
	}
	if Print(clone) != Print(m) {
		t.Errorf("clone prints differently:\n%s\nvs\n%s", Print(clone), Print(m))
	}
	// The mapping covers every instruction and points into the clone.
	n := 0
	m.Instrs(func(in *Instr) {
		n++
		ci, ok := mapping[in]
		if !ok {
			t.Fatalf("no mapping for %s", in.Pos())
		}
		if ci.Block.Fn.Module != clone {
			t.Fatal("mapped instruction not in clone")
		}
		if ci.Op != in.Op || ci.Name != in.Name {
			t.Fatalf("mapping mismatched: %s vs %s", ci, in)
		}
	})
	if n != clone.NumInstrs() {
		t.Errorf("clone has %d instrs, original %d", clone.NumInstrs(), n)
	}
	// Mutating the clone leaves the original untouched.
	before := Print(m)
	clone.Funcs[0].Blocks[0].Instrs = nil
	if Print(m) != before {
		t.Error("mutating clone affected original")
	}
}

func TestCloneModuleIndependentGlobals(t *testing.T) {
	m := buildCountdown(t)
	g := m.AddGlobal("buf", I64, 2, []uint64{7})
	clone, _ := CloneModule(m)
	cg := clone.Global("buf")
	cg.Init[0] = 99
	if g.Init[0] != 7 {
		t.Error("clone shares initializer storage with original")
	}
}
